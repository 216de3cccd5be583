(** State identity: hash-consing by structure into one part-id arena.

    Every engine state has exactly one identity, its {!meta}, found in
    three steps:

    + {b structural probe} — the engine's typed [view] of the state
      (every field its key reads, never the memo slot) is looked up in a
      structural hash table.  A hit returns the existing meta and renders
      nothing; most probes in a traversal are hits.
    + {b arena} — on a structural miss the state's component strings
      ([parts]: a header plus one per process) are rendered and mapped
      through the part pool to dense part ids.  The part-id vector is
      the canonical identity: the arena maps it to its meta, so two
      states that differ in representation but render the same key
      (structurally different, key-equal) share one meta.
    + {b dense id} — a vector new to the arena gets the next id, in
      first-seen order.

    The full key string is never needed for identity.  It is rendered at
    most once per meta, on first demand ({!key}: output and string-keyed
    dedup).  Part strings, unlike ids, are stable across processes: a
    persisted table entry travels as its parts ({!parts_of_id}) and is
    re-identified on load ({!adopt}).

    The part ids are the basis of the bucketed similarity-graph
    construction in {!Simgraph}: two states agree modulo process [j]
    exactly when their part vectors agree at every index except [j].

    Tables are domain-safe: probes and inserts are mutex-guarded, so
    concurrent domains interning equal states receive the same meta, and
    concurrent {!key} demands all return one string.  Output derived
    from interning is byte-identical across [--jobs] counts (ids and
    part ids depend on interning order, but nothing ordering-sensitive
    is ever printed). *)

(** The rendered key, once demanded; read it through {!key}. *)
type key_cell

type meta = private {
  id : int;  (** dense id: key-equal states share it, others never do *)
  parts : int array;
      (** dense part ids: index [0] is the header (round, environment),
          index [i >= 1] is process [i]'s component *)
  rendered : key_cell;
}

(** A per-state memo cell for the state's meta.  Slots survive
    [Marshal] round-trips (checkpoint/resume) safely: a revived slot is
    detected as foreign and the state is transparently re-interned. *)
type slot

val fresh_slot : unit -> slot

type 'a t

(** [create ~view ~key ~parts ()] builds an identity table.

    - [view] is the state's structural identity, compared with
      [compare] and hashed over up to 64 meaningful values: every field
      [key] reads, and nothing else (in particular not the memo slot).
      Views must be immutable once interned.
    - [key] renders the canonical encoding, injective on states.
    - [parts] splits the state into header + per-process component
      strings such that two states satisfy the model's
      [agree_modulo x y j] exactly when their parts agree everywhere
      except index [j].  Parts and key must determine each other
      (same parts ⇔ same key). *)
val create :
  ?size:int ->
  view:('a -> 'v) ->
  key:('a -> string) ->
  parts:('a -> string array) ->
  unit ->
  'a t

(** Intern a state: one structural probe on repeats. *)
val intern : 'a t -> 'a -> meta

(** [memo t slot x] is [intern t x], cached in [x]'s own slot — the
    fast path is one atomic read. *)
val memo : 'a t -> slot -> 'a -> meta

(** [key t m x] is the canonical key of [x], whose meta is [m]: rendered
    from [x] on the meta's first demand, then shared by every state of
    that meta. *)
val key : 'a t -> meta -> 'a -> string

(** A state's orbit under process-permutation symmetry: the orbit's
    dedup key, the witness permutation mapping the state's parts onto
    the representative's, and the orbit size (see {!Canon}). *)
type canon = { ckey : string; witness : Canon.witness; weight : int }

(** [canon t ~roles x] canonicalizes [x]'s part strings under the
    role-respecting permutation group.  [ckey] is {!Canon.render} of
    the canonical part {e strings}, so it is a pure function of the
    orbit (part ids are first-seen-order dependent and never enter it):
    two states share [ckey] exactly when a role-respecting process
    renaming carries one's parts onto the other's.  Soundness of
    quotienting a traversal by this key is the caller's obligation
    ({!Canon}). *)
val canon : 'a t -> roles:int array -> 'a -> canon

(** [part_ids t x] is [x]'s parts rendered afresh and mapped through the
    part pool, without probing the structural table or the arena — what
    an interned meta's [parts] must equal. *)
val part_ids : 'a t -> 'a -> int array

(** [adopt t parts] interns a part-string vector that has no state and
    returns its id: the id an existing meta with those parts already
    has, or a fresh one that a state interned later with those parts
    receives.  Not counted in {!Layered_runtime.Stats}. *)
val adopt : 'a t -> string array -> int

(** [parts_of_id t] snapshots the part pool and the arena; the result
    maps an interned id to its part strings.  Equal parts of different
    ids are physically one string, so [Marshal] writes each once.
    Raises [Invalid_argument] on an id interned after the snapshot. *)
val parts_of_id : 'a t -> int -> string array

(** Number of distinct states interned so far (the arena population). *)
val size : 'a t -> int
