(** The serve daemon: a Unix-domain-socket server for the layered
    verification queries.

    Single accept/read loop on [Unix.select]; decoded requests are
    handed to the concurrent {!Dispatcher}, which runs up to [jobs]
    whole requests at once on the shared domain
    {!Layered_runtime.Pool}: one worker domain per request, spawned
    when the first request is dispatched.
    Shared across requests: the valence classifier cache (warm memo),
    the keyed result cache, and the process-wide
    {!Layered_runtime.Stats}.

    {b Isolation.}  Each connection owns a {!Layered_runtime.Budget}
    fault-domain root; each admitted request runs under a child of it.
    A disconnect cancels exactly that connection's in-flight requests
    (answered [cancelled], results discarded, caches untouched); a
    per-client in-flight cap and fair-share backlog shedding keep one
    flooding client from starving the rest.

    {b Shutdown.}  SIGINT, SIGTERM (when [install_signals]) and the
    [shutdown] request all set one stop flag.  The loop then drains the
    dispatcher — every admitted request gets its response — closes
    client connections and the listening socket, unlinks the socket
    path, flushes a final stats snapshot to stderr (when [stats] or
    stopped by a signal) and returns 0.  Never a stack trace.  A signal
    interrupting [select], [accept] or [read] is retried or absorbed
    (EINTR discipline), never fatal.

    {b Containment.}  A request that raises — including a fault-
    injection raise — poisons only its own response ([internal] error);
    a crashed pool worker is respawned by the pool itself.  A client
    that overflows {!Protocol.max_line_bytes} gets a [parse] error and
    its connection closed; other clients are untouched. *)

type config = {
  socket_path : string;
  jobs : int;  (** worker domains, and so requests computed at once *)
  queue_cap : int;
  max_heap_mb : int;
  request_timeout_s : float;  (** per-request deadline; 0 = none *)
  per_client_cap : int;
      (** max in-flight requests per connection; 0 = uncapped *)
  idle_timeout_s : float;
      (** slow-loris deadline: a connection holding a {e partial}
          request line longer than this gets a [timeout] error response
          and is dropped; 0 = none.  Idle connections with an empty
          buffer are never reaped.  Default 30 s. *)
  spill_dir : string option;
      (** warm-cache durability: reload both shared caches from this
          directory at startup and spill them back through the
          checkpoint format, periodically and on drain *)
  spill_every : int;
      (** spill after every this-many responses (before the response
          write, so a crash in the reply window never loses the entry
          it just cached); 0 = on drain only.  Default 32. *)
  spill_keep : int;
      (** spill generations kept on disk after each save
          ([--spill-keep]); default {!Spill.keep_generations} *)
  stats : bool;  (** flush a stats snapshot to stderr on exit *)
  install_signals : bool;
      (** install SIGINT/SIGTERM handlers (off for in-process servers
          spawned by tests and oracles) *)
}

val default_config : socket_path:string -> config

(** The exit code of a simulated daemon crash (the
    [Serve_crash_before_reply] fault site): caches spilled, reply
    unsent, socket file left behind — everything a SIGKILL would leave.
    {!Supervisor} treats it, like any nonzero code other than 2, as
    abnormal and respawns. *)
val exit_crashed : int

(** [run config] serves until stopped; returns the process exit code
    (0 on a clean shutdown, 2 when the socket cannot be bound,
    {!exit_crashed} when an injected crash killed the incarnation). *)
val run : config -> int
