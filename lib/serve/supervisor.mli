(** Supervised daemon restarts: the crash-recovery half of resilient
    serving, with the client replay logic in {!Client} as the other
    half.

    The supervisor state machine is a loop over daemon incarnations:

    - a {e clean} exit — 0 (shutdown request or signal drain) or 2
      (bind/config failure a respawn could only repeat) — ends the
      loop with that code;
    - an {e abnormal} exit (any other code, {!Server.exit_crashed}
      included, or a fatal signal) respawns the daemon after a jittered
      exponential backoff, unless the circuit breaker trips.

    {b Backoff.}  Delays grow from [backoff_initial_s] by doubling,
    capped at [backoff_max_s]; each delay is scaled into [50%, 100%] of
    nominal by a deterministic jitter derived from [seed] and the
    attempt number, so a herd of supervised daemons desynchronises while
    the chaos harness stays reproducible.

    {b Circuit breaker.}  More than [max_restarts] crashes inside a
    sliding [window_s] window and the supervisor gives up with exit
    code 1 — a daemon that dies on arrival must not be respawned
    forever.  Crashes older than the window are forgiven, so a
    long-lived daemon that absorbs one fault a day never trips it. *)

type config = {
  max_restarts : int;  (** breaker threshold: crashes tolerated per window *)
  window_s : float;  (** breaker sliding-window width *)
  backoff_initial_s : float;
  backoff_max_s : float;
  seed : int;  (** jitter seed; same seed, same delays *)
  pid_file : string option;
      (** rewritten with the child pid after every (re)spawn — how the
          crash smoke test finds the incarnation to SIGKILL
          ({!run_forked} only) *)
  verbose : bool;  (** log restarts and breaker trips to stderr *)
}

val default : config

type outcome = {
  exit_code : int;  (** the final incarnation's exit code, or 1 on a trip *)
  restarts : int;  (** abnormal exits absorbed *)
  gave_up : bool;  (** the circuit breaker tripped *)
}

(** [supervise config spawn] is the supervision loop, over however one
    daemon incarnation runs: [spawn ()] blocks until the incarnation is
    gone and reports [`Clean code] (the loop ends with [code]) or
    [`Crashed reason] (respawn after the backoff, unless the breaker
    trips).  {!run_forked} drives it with forked children; the
    in-process flavour the oracles and tests use lives beside them. *)
val supervise :
  config -> (unit -> [ `Clean of int | `Crashed of string ]) -> outcome

(** [run_forked ?config run] supervises [run] in a forked child per
    incarnation — the [layered serve --supervise] flavour, where a
    SIGKILLed daemon is a crash like any other.  SIGTERM/SIGINT sent to
    the supervisor are forwarded to the live child so an operator stop
    drains cleanly. *)
val run_forked : ?config:config -> (unit -> int) -> outcome

(** The deterministic backoff schedule, exposed for tests. *)
val backoff_s : config -> attempt:int -> float
