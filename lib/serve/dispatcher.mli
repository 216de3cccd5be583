(** Concurrent request dispatch with per-request fault domains.

    The {!Server} select loop stays single-threaded: it reads lines,
    feeds them to {!submit}, and calls {!pump} each iteration.  Compute
    requests become {e flights} — single-flight coalesced computations —
    queued on a deterministic {!Admission.Backlog} and executed on the
    domain {!Layered_runtime.Pool} via {!Dispatch.execute_concurrent},
    whole requests in parallel.  Completions travel back over a mutex'd
    queue plus a self-pipe ({!wakeup_fd}) that the select loop watches.

    {b Fault domains.}  Each connection owns a root
    {!Layered_runtime.Budget} token; each admitted request gets a child
    of it.  A client disconnect cancels the root — tripping exactly that
    connection's in-flight requests; a per-request deadline or an
    eviction cancels one child.  A cancelled request is answered with
    the structured [cancelled] error code, its partial output is
    discarded (never cached), and nothing else notices.

    {b Single-flight.}  Identical concurrent requests (same
    {!Protocol.cache_key}) coalesce onto one in-flight computation; the
    waiters receive the leader's result byte-for-byte.  If the leader is
    cancelled or its handler crashes, only the leader's client sees the
    error: the oldest surviving waiter is promoted and the computation
    re-queued under {e its} budget (the cancellation-safe retry).

    {b Determinism.}  Replies on one connection are flushed strictly in
    request order (out-of-order completions park until their turn), the
    backlog starts work in (deadline, arrival) order, and cache fills
    commit before any reply for that result — so daemon transcripts are
    byte-identical at [--jobs 1] and [--jobs 4].

    Not thread-safe: every function here must be called from the select
    loop's thread.  Only the pool-worker completion path touches the
    internal queue, under its own mutex. *)

(** Raised out of {!pump}/{!drain} when the [serve_crash_before_reply]
    fault fires on the commit path: caches are filled (and spilled on
    cadence), the reply is lost, the daemon dies abnormally. *)
exception Crashed

type t
type conn

(** [create ~ctx ~on_commit ()] — [on_commit] runs once per flushed
    response, {e before} the crash-before-reply fault site and the
    write: the server hooks its served-counter and spill cadence here.
    Up to [jobs - 1] flights run at once, one per pool worker (the
    select loop owns the caller slot).  Raises [Invalid_argument] on a
    pool of [jobs = 1], which has no worker. *)
val create : ctx:Dispatch.ctx -> on_commit:(unit -> unit) -> unit -> t

(** The read end of the completion self-pipe: add it to the select read
    set and call {!pump} when it (or anything else) wakes the loop. *)
val wakeup_fd : t -> Unix.file_descr

(** True once a [shutdown] request has been accepted. *)
val shutdown_requested : t -> bool

(** [add_conn t ~write ~on_dead] registers a connection.  [write] sends
    one response and returns whether the peer is still writable;
    [on_dead] runs exactly once when the connection is dropped (failed
    write, {!drop_conn}, or a flushed farewell) — the server closes the
    socket there. *)
val add_conn :
  t -> write:(Protocol.response -> bool) -> on_dead:(unit -> unit) -> conn

val conn_alive : conn -> bool

(** [submit t conn line] decodes, admits and enqueues one request line.
    Control requests answer immediately; compute requests join an
    existing flight, hit the result cache, or queue a new flight.  A
    queue-full shed first attempts the fair-share rescue: evict the
    newest queued flight of the deepest {e other} client if that client
    is strictly deeper than this one.  May raise {!Crashed} (via the
    flush of an answer that needs no compute). *)
val submit : t -> conn -> string -> unit

(** [finish_conn t conn ~farewell] queues a final response (timeout
    notice, oversized-line error) behind everything the connection is
    still owed and closes it once the whole FIFO has flushed — a reaped
    connection still receives its in-flight answers first. *)
val finish_conn : t -> conn -> farewell:Protocol.response -> unit

(** [drop_conn t conn] — the connection is gone.  Cancels its budget
    root, purges its queued work and its single-flight memberships,
    promotes flights it led to surviving waiters, and runs [on_dead].
    Idempotent. *)
val drop_conn : t -> conn -> unit

(** Process completed flights and start queued ones.  Call once per
    select iteration.  May raise {!Crashed}. *)
val pump : t -> unit

(** Block (in 50 ms select slices on the self-pipe) until no flight is
    running or queued — the shutdown path: stop reading, drain, then
    spill.  May raise {!Crashed}. *)
val drain : t -> unit

(** Close the self-pipe.  Call {e after} the pool is shut down, so no
    worker can write to a closed fd. *)
val close : t -> unit
