(** Process-wide instrumentation counters for the multicore runtime.

    All counters are [Atomic]-backed and may be bumped from any domain.
    They are cumulative across the whole process: callers that want
    per-phase numbers should [reset] first and [snapshot] after.  The
    counters observe, never influence, execution — enabling them costs a
    handful of atomic adds per explored state. *)

type snapshot = {
  states_expanded : int;
      (** states whose successor list was computed (BFS interior nodes) *)
  dedup_hits : int;
      (** candidate states discarded because their key was already seen *)
  valence_cache_hits : int;  (** memo-table hits in {!Layered_core.Valence} *)
  valence_cache_misses : int;  (** memo-table misses (entry (re)computed) *)
  tasks_executed : int;
      (** map chunks and posted tasks executed by {!Pool} *)
  domains_utilised : int;
      (** distinct pool slots (caller = slot 0, workers = 1..) that
          executed at least one task since the last [reset]; chunk [p]
          of a {!Pool.parallel_map} counts as slot [p] *)
  workers_respawned : int;
      (** dead worker domains replaced by {!Pool} crash containment *)
  interned_states : int;
      (** distinct states hash-consed into {!Layered_core.Intern} tables,
          across all engines *)
  intern_hits : int;
      (** intern calls answered by an existing meta: a state already in
          the table, or an adopted part vector the state claims
          (per-state memo-slot hits are not counted — they never reach
          the table) *)
  simgraph_maskings : int;
      (** state × masked-position bucket insertions performed by the
          bucketed similarity-graph builder (its O(m·n) term) *)
  simgraph_candidates : int;
      (** bucket-mate pairs verified exactly by the bucketed builder
          (the output-sensitive term; compare against m²/2 probes) *)
  result_cache_hits : int;
      (** serve-mode keyed result-cache probes answered from the cache
          (the response bytes were replayed, not recomputed) *)
  result_cache_misses : int;
      (** result-cache probes that fell through to a fresh computation *)
  requests_cancelled : int;
      (** serve requests answered with the structured [cancelled] error
          (their per-request fault domain was cancelled — disconnect,
          shed eviction or injected cancellation) *)
  singleflight_joins : int;
      (** serve requests that coalesced onto an identical in-flight
          computation instead of starting their own engine walk *)
  gc_compactions : int;
      (** [Gc.compact] calls issued by the memory watermarks: the
          budget's one compaction (spent before a [Memory] hard trip or
          at the first soft crossing) and the soft watermark's
          compaction at every later level boundary above it *)
  ckpt_rejected : int;
      (** checkpoint generations {!Checkpoint.load_latest} skipped
          because they were torn or corrupt (rolled back past) *)
  mem_soft_events : int;
      (** level boundaries at which the heap was found above the soft
          watermark (and compacted) *)
  orbit_hits : int;
      (** candidates the canon-keyed frontier dedup dropped beyond what
          a raw-key dedup of the same level would drop: per level,
          distinct candidate states minus claimed orbits — distinct
          states merged into another member's orbit (never more than
          [dedup_hits]) *)
}

val reset : unit -> unit
val snapshot : unit -> snapshot
val pp : Format.formatter -> snapshot -> unit

(** [restore s] overwrites the live counters with [s] — used to roll the
    counters back to a pre-attempt snapshot when the work that bumped
    them is discarded (a failed experiment attempt that gets rerun, a
    parallel map superseded by a serial fallback).  [domains_utilised]
    is a popcount, so restore marks that many low slots as utilised
    rather than the original slot set. *)
val restore : snapshot -> unit

(** [merge s] adds [s]'s counts into the live counters — used when a
    resumed run inherits the counter state of the checkpointed prefix. *)
val merge : snapshot -> unit

(** [diff a b] is the pointwise difference [a - b], clamped at zero:
    the counter delta between two snapshots taken around an attempt.
    [domains_utilised] is carried over from [a] (deltas of a popcount
    are not meaningful). *)
val diff : snapshot -> snapshot -> snapshot

(** {1 Incrementors}

    Cheap and lock-free; safe from any domain.  No-ops when the delta is
    zero. *)

val add_states_expanded : int -> unit
val add_dedup_hits : int -> unit
val record_valence_lookup : hit:bool -> unit

(** [record_intern ~fresh] counts one intern-table probe: a fresh
    insert when [fresh], a hit on an existing entry otherwise. *)
val record_intern : fresh:bool -> unit

val add_simgraph_maskings : int -> unit
val add_simgraph_candidates : int -> unit

(** [add_orbit_hits n] counts [n] distinct candidate states merged into
    another member's orbit under [--symmetry]. *)
val add_orbit_hits : int -> unit

(** [record_result_cache ~hit] counts one keyed result-cache probe in
    the serve daemon: a replayed response when [hit], a fresh
    computation otherwise. *)
val record_result_cache : hit:bool -> unit

(** One serve request was answered with the [cancelled] error code. *)
val record_request_cancelled : unit -> unit

(** One serve request joined an identical in-flight computation as a
    single-flight waiter. *)
val record_singleflight_join : unit -> unit

(** One [Gc.compact] issued by a memory watermark. *)
val record_gc_compaction : unit -> unit

(** [add_ckpt_rejected n] counts [n] torn/corrupt checkpoint generations
    rolled back past by {!Checkpoint.load_latest}. *)
val add_ckpt_rejected : int -> unit

(** The heap was above the soft watermark at a level boundary. *)
val record_mem_soft_event : unit -> unit

(** [record_task ~slot] counts one executed chunk and marks pool slot
    [slot] as utilised (slots >= 62 share the last bit). *)
val record_task : slot:int -> unit

(** One dead worker domain was detected and respawned. *)
val record_worker_respawn : unit -> unit
