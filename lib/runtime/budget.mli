(** Execution budgets: deadlines, state caps, memory watermarks and
    cooperative cancellation.

    Every sweep and verification in this repository is an exhaustive walk
    over a state space that grows super-exponentially in [n], [t] and
    depth.  A {!t} bounds such a walk: it carries an optional wall-clock
    deadline, an optional cap on charged states, an optional live-heap
    watermark (sampled via [Gc.quick_stat]) and an [Atomic]-backed
    cancellation token (flipped by {!cancel}, e.g. from a SIGINT
    handler).  Engines thread a budget through their inner loops via
    {!charge}/{!exceeded}/{!check} — a handful of atomic reads per state,
    cheap enough for BFS hot paths — and, instead of diverging, stop at
    the budget and report the work already done as a {!status}.

    A budget is shared freely across domains: all mutable fields are
    atomics.  Once any limit has been observed the budget is {e tripped}
    and stays tripped ({!tripped} returns the first reason observed), so
    a partial run can report a single coherent truncation reason. *)

type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | States  (** more states were charged than [max_states] allows *)
  | Memory  (** the major heap grew past [max_memory_mb] *)
  | Interrupted  (** {!cancel} was called (e.g. SIGINT) *)

(** Raised by {!check} (and by budget-aware combinators such as
    {!Pool.parallel_map}) when the budget is exhausted.  Cooperative:
    engines catch it at a clean boundary and return their prefix. *)
exception Exhausted of reason

(** How far a truncated computation got before the budget fired. *)
type truncation = {
  reason : reason;
  at_depth : int;  (** deepest fully-completed level/round *)
  states_seen : int;  (** states charged to the budget when it fired *)
}

type status = Complete | Truncated of truncation

(** A computed value plus whether it is the whole answer or a prefix. *)
type 'a outcome = { value : 'a; status : status }

type t

(** [create ?timeout_s ?max_states ?max_memory_mb ?soft_memory_mb ()]
    makes a budget.  The deadline is [timeout_s] wall-clock seconds from
    the call; a [timeout_s] of [0.] is already expired.  All limits
    default to absent: a limit-free budget never trips except through
    {!cancel}.  [soft_memory_mb] is the {e soft} watermark: crossing it
    never trips the budget; it makes {!relieve} compact the heap at the
    level boundaries of a traversal.  Raises [Invalid_argument] on a
    negative or non-positive limit. *)
val create :
  ?timeout_s:float ->
  ?max_states:int ->
  ?max_memory_mb:int ->
  ?soft_memory_mb:int ->
  unit ->
  t

(** [child ?timeout_s ?max_states ?max_memory_mb parent] makes a budget
    whose limits are its own but whose cancellation token is linked to
    [parent]: cancelling any ancestor trips the child as [Interrupted],
    while cancelling the child never affects the parent or siblings.
    This is the per-request fault domain used by the serve dispatcher —
    one parent token per connection, one child per admitted request, so
    a disconnect cancels exactly that connection's in-flight work.  A
    child with no limits of its own is a pure cancellation token. *)
val child :
  ?timeout_s:float ->
  ?max_states:int ->
  ?max_memory_mb:int ->
  ?soft_memory_mb:int ->
  t ->
  t

(** Flip the cancellation token.  Async-signal-safe (one atomic store);
    idempotent.  Affects this budget and its descendants, never its
    ancestors. *)
val cancel : t -> unit

(** True when this budget or any ancestor has been cancelled. *)
val is_cancelled : t -> bool

(** [charge t n] adds [n] states to the budget's counter. *)
val charge : t -> int -> unit

val states_seen : t -> int

(** Wall-clock seconds until the deadline (clamped at 0), or [None] when
    the budget has no deadline.  What a checkpoint records so a resumed
    run cannot be granted more total time than the original one. *)
val deadline_remaining : t -> float option

(** [restrict_deadline t ~remaining_s] tightens the deadline to at most
    [remaining_s] seconds from now — it never extends an earlier
    deadline.  Used on resume to re-impose the time a checkpointed run
    had already spent.  Raises [Invalid_argument] on a negative value. *)
val restrict_deadline : t -> remaining_s:float -> unit

(** [exceeded t] is the first limit observed to be exhausted, or [None].
    Cancellation and the states cap are checked on every call; the
    deadline is checked whenever one is set; the heap watermark is
    sampled every 64th call.  A sampled heap over the cap first spends
    the budget's one [Gc.compact] and only reports [Memory] if the
    live heap is still over — a fragmented heap must not trip a run that
    would fit.  Sticky: once some reason is returned, every later call
    returns that same reason. *)
val exceeded : t -> reason option

(** [relieve budget] walks the soft watermark at a level boundary of a
    traversal.  When the heap, read directly (one [Gc.quick_stat]), is
    above [soft_memory_mb], it counts a [memory soft event], spends the
    budget's one compaction (the one {!exceeded} would spend before a
    [Memory] trip), and, if the heap is still above the watermark, runs
    one more [Gc.compact]; both count in [gc compactions].  Free without
    a budget or without a soft watermark.  Meant for level boundaries,
    never for per-state loops; it cannot change what a traversal
    computes. *)
val relieve : t option -> unit

(** [check t] raises [Exhausted r] iff [exceeded t = Some r]. *)
val check : t -> unit

(** The first reason this budget was ever observed exhausted, if any —
    what a driver consults after a run to pick its exit code. *)
val tripped : t -> reason option

(** [truncated t ~reason ~at_depth] packages the budget's current state
    counter into a [Truncated] status. *)
val truncated : t -> reason:reason -> at_depth:int -> status

(** {1 [option] helpers}

    Engines take [?budget]; these make the [None] path free. *)

val exceeded_opt : t option -> reason option
val charge_opt : t option -> int -> unit
val check_opt : t option -> unit

(** {1 Signal integration} *)

(** [with_sigint t f] runs [f ()] with a SIGINT handler installed that
    calls [cancel t], restoring the previous handler on exit.  On
    platforms without signal support it just runs [f]. *)
val with_sigint : t -> (unit -> 'a) -> 'a

(** {1 Printers} *)

val pp_reason : Format.formatter -> reason -> unit
val pp_truncation : Format.formatter -> truncation -> unit
val pp_status : Format.formatter -> status -> unit
