(** The classify-valence entry point: one call answering "what is the
    valence of every initial state of substrate [model] at (n, t,
    depth)?" — the query the paper's layered analysis keeps re-asking
    and the serve daemon amortises across requests.

    Each invocation classifies the full set of binary initial states of
    the chosen substrate with the {!Layered_core.Valence} engine.  With
    a {!cache}, the engine (and therefore its valence memo table) is
    shared across calls that agree on (model, n, t): a warm repeat of
    the same query is answered almost entirely from the memo — the
    cross-request cache the serve daemon keeps, with hit/miss counters
    in {!Layered_runtime.Stats}.  Verdicts are identical warm or cold;
    only the cost differs (see the [serve/warm-valence] vs
    [serve/cold-valence] bench kernels). *)

type t = {
  model : string;
  n : int;
  t : int;
  depth : int;
  verdicts : (string * Layered_core.Valence.verdict) list;
      (** canonical initial-state key, in the engine's generation order *)
}

(** A cross-call classifier cache keyed by (model, n, t).  Thread-safe:
    the table is mutex-guarded and every classifier serialises its own
    engine (memo probes, spill export, budget scoping) under a
    per-classifier lock, so the serve dispatcher can run requests
    against a shared cache from concurrent pool workers.  Distinct
    (model, n, t) classifiers proceed in parallel; identical ones
    serialise — the dispatcher's single-flight layer coalesces those
    before they ever contend. *)
type cache

(** An empty cache.  Every cache can be {!export_spill}ed across a
    process restart (the serve daemon's warm-cache durability). *)
val create_cache : unit -> cache

(** Number of distinct (model, n, t) classifiers the cache holds. *)
val cache_entries : cache -> int

(** [run ?budget ?cache ~model ~n ~t ~depth ()] classifies every binary
    initial state of the {!Models} row named [model] (what [t] means is
    stated once, in {!Models}).  With [budget], the walk consults it for
    the duration of this call only (the per-request fault domain): a
    tripped budget degrades verdicts to [Unknown] and caches nothing, so
    a cancelled request leaves the shared memo untouched.  Raises
    [Invalid_argument] on an unknown model name or a negative depth. *)
val run :
  ?budget:Layered_runtime.Budget.t ->
  ?cache:cache -> model:string -> n:int -> t:int -> depth:int -> unit -> t

(** {1 Spill}

    A [Marshal]-safe image of every classifier's valence memo, keyed by
    (model, n, t) and sorted, with each memoised state given by its part
    strings ({!Layered_core.Engine_core.S.export_memo}) — stable across
    processes, unlike intern ids, and sorted too, so spilled bytes are
    identical across jobs counts.  [import_spill] adopts the parts into
    each classifier's identity table and loads the memo, so a reloaded
    query is answered from it with verdicts identical to a cold
    computation.  It skips the entries of a model this build has no row
    for. *)

type spill =
  ((string * int * int)
  * (string array * (int * Layered_core.Valence.outcome)) list)
  list

val export_spill : cache -> spill
val import_spill : cache -> spill -> unit

(** Total memo entries across the spill, for logs and counters. *)
val spill_entries : spill -> int

(** Counts of (bivalent, univalent, unknown) verdicts. *)
val tally : t -> int * int * int

val pp : Format.formatter -> t -> unit
