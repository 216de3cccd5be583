(** Differential oracles for the serve daemon.

    Each oracle spawns a real in-process daemon — own domain, own Unix
    socket, signals not installed — talks to it over the wire, and
    compares raw response lines:

    - [serve/oneshot-eq]: every daemon answer equals the one-shot CLI
      rendering of the same query, byte for byte;
    - [serve/interleave-eq]: two clients issuing the same queries in
      different orders and groupings (one per-line, one batched) get
      identical response bytes, and a repeated query is answered
      identically warm (cached) and cold;
    - [serve/jobs-eq]: a jobs=1 daemon and a multi-worker daemon answer
      the same query set identically;
    - [serve/cancel-clean]: a client disconnect cancels only that
      client's in-flight requests — a surviving client's answers and
      the shared caches' accounting are untouched;
    - [serve/singleflight-eq]: four connections firing the identical
      query at once all receive the leader's bytes, and the daemon
      computed exactly once;
    - [serve/fair-share]: a client flooding past its per-client cap is
      shed deterministically (FIFO, reason per-client) while a
      well-behaved client is served one-shot bytes;
    - the [serve/crash-recover-eq], [serve/warm-restart] and
      [serve/replay-idempotent] recovery oracles run the supervised
      stack and treat restarts, replays and latency-guard trips as
      detections even when the bytes come back right.

    Each oracle issues at least three byte-checked compute requests
    covering the first three admissions and the first three executed
    flights, so an armed serve fault site (firing index < 3) is
    guaranteed to fire on a response the oracle verifies. *)

(** The nine oracles above, in that order. *)
val all : Oracle.t list

(** [run_inprocess ~config run] supervises [run] as a function call in
    this process ({!Layered_serve.Supervisor.supervise}):
    {!Layered_serve.Server.exit_crashed} and raised exceptions count as
    crashes, every other exit code ends the loop.  The oracle and test
    flavour of [serve --supervise]: a simulated crash must not kill the
    test process. *)
val run_inprocess :
  config:Layered_serve.Supervisor.config -> (unit -> int) -> Layered_serve.Supervisor.outcome
