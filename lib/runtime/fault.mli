(** Deterministic, seed-driven fault injection for the runtime itself.

    The paper's subject is computation under adversarial failures; this
    module turns the same adversarial stance on our own runtime.  Named
    {e fault sites} are threaded through the hot paths of the pool, the
    frontier BFS, the budget probes and the valence engine.  A site is a
    call to {!point}: it answers [false] always — unless injection has
    been {!arm}ed for that site, in which case exactly one visit (chosen
    by the seed) answers [true] and the call site misbehaves in its own
    documented way (drop a successor, raise in a worker, report a
    spurious cancellation, ...).

    {b Fast path.}  Injection is guarded by a single [Atomic] flag read:
    with injection disarmed (the production state) {!point} is one
    [Atomic.get] and a branch, nothing else — see the
    [chaos/point-disabled] bench kernel for the measured cost.

    {b Determinism.}  [arm ~seed site] derives the firing visit index
    from [seed] and fires {e exactly once}: visit indices are allocated
    with a fetch-and-add, so precisely one visit observes the target
    index regardless of how many domains race through the site.  Which
    domain that is may vary with scheduling; that the fault fires, and
    how many times, does not.

    Injection is process-global (sites live inside engine hot loops that
    have no room for a handle); arm/disarm from one place only — the
    chaos harness does. *)

type site =
  | Drop_successor  (** a freshly-discovered state is silently discarded *)
  | Duplicate_state  (** a state enters the frontier twice, past dedup *)
  | Corrupt_dedup_shard
      (** the frontier's first-seen pass marks an unclaimed id as
          already claimed, losing its state (there are no shards any
          more; the name stays because [chaos] prints it) *)
  | Worker_raise
      (** a pool worker raises around a task, outside the task's own
          handlers, and its domain dies *)
  | Worker_stall  (** a pool worker sleeps {!stall_seconds} mid-task *)
  | Spurious_cancel
      (** a budget probe reports [Interrupted] though nobody cancelled *)
  | Flip_valence_bit  (** a valence classification returns a wrong verdict *)
  | Torn_checkpoint_write
      (** a checkpoint file is truncated mid-write, as by a crash or a
          full disk, leaving a short (torn) generation on disk *)
  | Corrupt_checkpoint_crc
      (** a checkpoint payload byte is flipped {e after} the CRC was
          computed, so the stored checksum no longer matches the body *)
  | Serve_handler_raise
      (** the serve daemon's request handler raises mid-dispatch; the
          per-request containment layer must turn this into an error
          response and keep the daemon serving *)
  | Serve_corrupt_response
      (** one serve response line has a byte flipped just before the
          socket write, as by a transport-layer corruption *)
  | Serve_torn_frame
      (** a serve response line is torn mid-write: the daemon emits the
          first half of the frame and drops the connection, as by a
          crash between two [write(2)]s — the client sees a partial
          line followed by EOF and must reconnect and replay *)
  | Serve_stalled_client
      (** the daemon's read path stalls {!stall_seconds} before
          consuming a client's bytes, as by a scheduling hiccup or a
          slow-loris peer wedging the accept loop *)
  | Serve_crash_before_reply
      (** the daemon dies after dispatching a request — caches filled,
          warm-cache spill written — but before the response write, the
          canonical torn-window crash the supervisor and client replay
          must mask *)
  | Serve_cancel_midflight
      (** an admitted request's budget token is cancelled at dispatch
          time, as by a client disconnect racing its own request — the
          per-request fault domain must answer {e that} request with the
          structured [cancelled] error and leave every other request,
          the caches and the daemon untouched *)
  | Serve_singleflight_leader_crash
      (** the leader of a single-flight computation raises mid-walk;
          the dispatcher must fail only the leader and re-run the
          computation for the coalesced waiters under a waiter's own
          budget (the cancellation-safe retry) *)

(** Raised into the runtime by the [Worker_raise] site. *)
exception Injected of site

val all : site list

val site_name : site -> string

(** Inverse of {!site_name}; [None] on an unknown name. *)
val site_of_name : string -> site option

val pp_site : Format.formatter -> site -> unit

(** How long the [Worker_stall] site sleeps when it fires.  Large enough
    that a timing oracle separates a stalled run from an honest one with
    a wide margin. *)
val stall_seconds : float

(** [arm ~seed site] enables injection for [site] and resets the visit
    counters.  The firing visit index is [seed]-derived but always small
    (< 3), so any site visited at least three times during the armed run
    is guaranteed to fire. *)
val arm : seed:int -> site -> unit

(** Disable injection: every {!point} is [false] again.  Idempotent. *)
val disarm : unit -> unit

val armed : unit -> site option

(** Like {!armed}, but also reports the seed injection was armed with —
    recorded in checkpoint metadata so a resumed run knows a snapshot was
    written under fire. *)
val armed_with : unit -> (site * int) option

(** [point site] is [true] iff the armed fault fires at this visit.
    Call sites must make the documented misbehaviour happen when it
    does.  Visits to sites other than the armed one are not counted. *)
val point : site -> bool

(** Visits to the armed site since {!arm} (how often the fault {e could}
    have fired). *)
val hits : unit -> int

(** Times the armed fault actually fired since {!arm} (0 or 1: a armed
    fault fires at most once).  A chaos trial whose armed run ends with
    [fired () = 0] never exercised the fault and proves nothing. *)
val fired : unit -> int

(** [mangle_level level] applies the [Drop_successor] / [Duplicate_state]
    sites to a freshly deduplicated BFS level, visiting them once per
    state: a state is dropped if [Drop_successor] fires at it, and
    enqueued twice if [Duplicate_state] does.  Returns the level
    unchanged, at the cost of one flag read, when injection is
    disarmed. *)
val mangle_level : 'a list -> 'a list
