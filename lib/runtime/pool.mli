(** A fixed-size pool of worker domains with order-preserving parallel
    combinators over chunked work lists.

    A pool of [jobs = n] has [n - 1] worker domains, spawned at its
    first dispatch (so standing a pool up costs no domain); the calling
    domain is the pool's slot 0 and always participates in the work, so
    the combinators run [n]-way parallel.  With [jobs = 1] no domain is
    ever spawned and every combinator degrades to its serial [List]
    counterpart — call sites need no special-casing.

    Workers take tasks from one shared queue, so a task starts on
    whichever worker is idle.  Work lists are split into at most [jobs]
    contiguous chunks (the caller runs the first, the workers take the
    rest), so results can be stitched back by index: {!parallel_map} is
    deterministic and agrees with [List.map] regardless of scheduling.

    Combinators must not be called from inside a task running on the
    same pool (a nested call can wait for chunks that no idle worker is
    left to take).

    {b Crash containment.}  Workers execute tasks under a wrapper that
    routes any escaping exception — including an injected
    {!Fault.Worker_raise}, which is raised {e outside} the task's own
    handlers — to the submitter's failure channel, so a crashed task
    always settles its chunk and {!parallel_map} cannot wedge waiting on
    it.  A domain-fatal failure additionally kills the worker's domain;
    the pool detects the dead domain on its next dispatch and respawns
    it ({!Stats} counts the respawns; a first spawn is not one), so a
    pool survives worker crashes without losing capacity.

    {b Quiescence.}  Every combinator is a barrier: it returns only
    after all of its chunks have settled, and workers run nothing
    between combinator calls.  Between two calls the pool is therefore
    {e quiescent} — no task is touching caller state — which is the
    invariant {!Frontier} relies on when it snapshots the dedup table
    and compacts the heap at level boundaries. *)

type t

(** [max 1 (Domain.recommended_domain_count () - 1)]: leave one core to
    the caller's other work by default. *)
val default_jobs : unit -> int

(** [create ~jobs ()] makes a pool of [jobs - 1] workers; their domains
    are spawned by the first dispatch, not here.  [jobs] defaults to
    {!default_jobs}; raises [Invalid_argument] if [jobs < 1]. *)
val create : ?jobs:int -> unit -> t

val jobs : t -> int

(** A one-job pool, created when the program starts, for callers that
    traverse on the calling domain (the experiments, [Layering.validate],
    a sweep given no pool).  It spawns no domain and its combinators
    touch no pool state, so any number of domains may use it at once.
    Never shut it down. *)
val serial : t

(** [parallel_map t f xs] = [List.map f xs], computed on up to
    [jobs t] domains.  If one or more applications of [f] raise, the
    first exception observed is re-raised on the calling domain after
    every chunk has settled — the pool never deadlocks and remains
    usable.

    With [?budget], every slot consults the budget before each element:
    an exhausted budget makes the chunks stop early and
    [Budget.Exhausted] reach the caller through the same
    settle-then-reraise path, so cancellation (e.g. Ctrl-C) drains the
    workers instead of wedging them. *)
val parallel_map : ?budget:Budget.t -> t -> ('a -> 'b) -> 'a list -> 'b list

val parallel_iter : ?budget:Budget.t -> t -> ('a -> unit) -> 'a list -> unit

(** [post t ~run ~fail] submits one fire-and-forget task to the shared
    queue, where the next idle worker takes it, with the same crash
    containment as the combinators: anything escaping [run] is routed
    to [fail] instead of killing the submitter's accounting.  Completion
    must be reported by [run]/[fail] themselves (e.g. through a
    completion queue) — there is no barrier.  Raises [Invalid_argument]
    on a pool of [jobs = 1], which has no worker to take the task.  Call
    only from the pool's owner domain; unlike the combinators, [run]
    must not itself dispatch onto the same pool. *)
val post : t -> run:(unit -> unit) -> fail:(exn -> unit) -> unit

(** Join all worker domains (none, if the pool never dispatched).
    Idempotent.  The pool must not be used afterwards. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down on
    exit (normal or exceptional).  With [?budget], a SIGINT handler that
    cancels the budget is installed for the duration
    ({!Budget.with_sigint}): Ctrl-C then drains the workers cooperatively
    and [f]'s partial results survive, instead of the process dying
    mid-write.  The previous SIGINT handler is restored on exit, so
    nested and repeated [with_pool] calls compose. *)
val with_pool : ?jobs:int -> ?budget:Budget.t -> (t -> 'a) -> 'a
