(** Similarity-graph construction over interned states.

    The paper's similarity relation has the FLP "agree modulo one
    process" shape: [x ~s y] iff for some process [j] the states agree
    at every component other than [j] (and a model-specific witness
    condition holds).  Building the graph by querying the relation on
    all pairs costs O(m²·n) component compares for m states; this
    module instead buckets the states n times by their {!Intern} part
    signature with position [j] masked — only bucket-mates can be
    related — which is O(m·n) hashing plus output-sensitive exact
    verification.  It produces exactly the graph of the all-pairs
    reference {!pairwise} (asserted by the [simgraph-eq] oracles and a
    QCheck property over all five engines). *)

(** How a model exposes its states to the bucketed builder. *)
type 'a adapter = {
  parts : 'a -> int array;
      (** the state's {!Intern.meta} part ids: header at index 0,
          process [i]'s component at index [i] *)
  witness : 'a -> 'a -> int -> bool;
      (** [witness x y j]: the model's extra similarity condition once
          [x] and [y] agree modulo [j] (e.g. "some other process is
          non-failed in both"); [fun _ _ _ -> true] when the agreement
          alone suffices *)
}

(** [masked_equal p q j] — parts arrays equal at every index except
    [j] (lengths must match).  Exposed so engines can define
    [agree_modulo] from their part signatures. *)
val masked_equal : int array -> int array -> int -> bool

(** The reference all-pairs construction ([Graph.of_pred] over [rel],
    queried once per unordered pair).  Returns the states as an array
    (graph nodes are its indices). *)
val pairwise : rel:('a -> 'a -> bool) -> 'a list -> 'a array * Graph.t

(** Reusable scratch tables for the bucketed builder (one bucket table
    per maskable position + the emitted-edge set), reset in place per
    build so per-layer constructions stop reallocating them. *)
type scratch

val scratch : unit -> scratch

(** The bucketed construction; requires [rel x y] ⟺ ∃j maskable,
    [masked_equal (parts x) (parts y) j && witness x y j].  With
    [?scratch], reuses the given tables instead of allocating. *)
val bucketed : ?scratch:scratch -> 'a adapter -> 'a list -> 'a array * Graph.t

(** A persistent builder: an engine holds one instance and routes every
    per-level similarity graph through it, so a layered traversal
    reuses one set of scratch tables across BFS levels rather than
    rebuilding them per layer.  Identical output to {!bucketed}
    (mutex-guarded, safe from pool workers). *)
module Incremental : sig
  type 'a t

  val create : 'a adapter -> 'a t
  val build : 'a t -> 'a list -> 'a array * Graph.t
end
