(** State identity: hash-consing by the engine's structural view.

    Every engine state has exactly one identity, its {!meta}, found by
    one probe: the engine's typed [view] of the state (every field its
    key reads, never the memo slot) is hashed once, outside any lock,
    and looked up in the stripe of the table that the hash picks.  A hit
    returns the existing meta; a miss adds the state with the next dense
    id from one atomic counter, so ids are in first-seen order in a
    serial run.  Neither renders anything.

    {b The view contract.}  Views are the identity, so the engine must
    make them canonical: two states have equal views exactly when they
    have equal keys.  Every engine and protocol meets it by keeping its
    sets as sorted lists or bitmasks and its maps as sorted association
    lists.  A view that is structurally different for key-equal states
    splits one state into two ids; the test suite checks every
    protocol's reachable levels against a BFS that dedups by rendered
    key.

    {b Lazy renders.}  The key string and the part strings are rendered
    at most once per meta, on first demand: {!key} for output and
    string-keyed dedup, {!parts} for similarity, whose part ids (the
    part strings mapped through the table's part pool) are the basis of
    the bucketed similarity-graph construction in {!Simgraph}: two
    states agree modulo process [j] exactly when their part vectors
    agree at every index except [j].

    {b Adopted parts.}  Part strings, unlike ids, are stable across
    processes: a persisted table entry travels as its parts
    ({!parts_of_id}) and is re-identified on load ({!adopt}).  The
    first adopt builds the table's arena, which maps part-id vectors to
    metas, from the states the table already holds; from then on every
    structural miss renders the state's parts and claims the adopted
    meta with those parts, if there is one.  A table that never adopts
    has no arena.

    {b Stripes.}  Tables are domain-safe: each of the 64 stripes has its
    own mutex, and the part pool has one more, taken only to pool a
    render.  Concurrent domains interning equal states meet in one
    stripe and receive the same meta, and concurrent {!key} and {!parts}
    demands all return one value.  Output derived from interning is
    byte-identical across [--jobs] counts (ids and part ids depend on
    interning order, but nothing ordering-sensitive is ever printed). *)

(** The rendered key, once demanded; read it through {!key}. *)
type key_cell

(** The pooled part ids, once demanded; read them through {!parts}. *)
type parts_cell

type meta = private {
  id : int;  (** dense id: states with equal views share it, others never do *)
  rendered : key_cell;
  pooled : parts_cell;
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
      Equal views ⟺ equal keys.  Views must be immutable once interned.
    - [key] renders the canonical encoding, injective on states.
    - [parts] splits the state into header + per-process component
      strings such that two states satisfy the model's
      [agree_modulo x y j] exactly when their parts agree everywhere
      except index [j].  Parts and key must determine each other
      (same parts ⟺ same key). *)
val create :
  ?size:int ->
  view:('a -> 'v) ->
  key:('a -> string) ->
  parts:('a -> string array) ->
  unit ->
  'a t

(** Intern a state: one find-or-add in one stripe. *)
val intern : 'a t -> 'a -> meta

(** [memo t slot x] is [intern t x], cached in [x]'s own slot — the
    fast path is one atomic read. *)
val memo : 'a t -> slot -> 'a -> meta

(** [key t m x] is the canonical key of [x], whose meta is [m]: rendered
    from [x] on the meta's first demand, then shared by every state of
    that meta. *)
val key : 'a t -> meta -> 'a -> string

(** [parts t m x] is [x]'s part ids, whose meta is [m]: index [0] is the
    header (round, environment), index [i >= 1] is process [i]'s
    component.  Rendered from [x] and mapped through the part pool on
    the meta's first demand, then shared like {!key}. *)
val parts : 'a t -> meta -> 'a -> int array

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
    part pool, without probing the table — what {!parts} must return
    for [x]. *)
val part_ids : 'a t -> 'a -> int array

(** [adopt t parts] interns a part-string vector that has no state and
    returns its id: the id of a state the table holds with those parts,
    or a fresh one that a state interned later with those parts claims.
    Not counted in {!Layered_runtime.Stats}; a later claim counts as an
    intern hit. *)
val adopt : 'a t -> string array -> int

(** [parts_of_id t] snapshots the ids interned so far; the result maps
    one of them to its part strings, rendering its parts on their first
    demand.  Equal parts of different ids are physically one string, so
    [Marshal] writes each once.  Raises [Invalid_argument] on an id
    interned after the snapshot. *)
val parts_of_id : 'a t -> int -> string array

(** Number of distinct identities so far: the states interned plus the
    adopted part vectors no state has claimed yet. *)
val size : 'a t -> int
