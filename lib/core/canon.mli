(** Process-permutation canonicalization of intern part arrays.

    States of a symmetric protocol come in orbits under process
    renaming: permuting the processes of a reachable state yields
    another reachable state with an isomorphic future.  [Canon] picks a
    deterministic orbit representative so frontiers can dedup whole
    orbits at the cost of one state — quotienting the explored space by
    up to n! — while the witness permutation and the orbit weight let
    reports reconstruct the unreduced figures byte-identically.

    The group acting is not all of S_n but the subgroup respecting a
    {e role partition}: positions sharing a role are interchangeable
    (same initial value, same fault treatment), positions of distinct
    roles never trade places, and the header slot (index 0) is fixed.

    {b Soundness requirements} (the caller's obligation, checked by the
    [sym/*] differential oracles, not by this module): the engine's part
    strings must be process-id-free, so that permuting the part array is
    exactly the renaming action on states; the successor relation must
    be equivariant under role-respecting renamings; and the role
    partition must refine every asymmetry of the initial state.  Under
    those conditions each BFS level of the unreduced traversal is a
    disjoint union of full orbits, and its size is the sum of the
    representatives' {!weight}s. *)

(** [witness.(i)] is the original index whose part the canonical form
    placed at position [i] — a role-respecting permutation certificate
    ([apply_witness] maps the original parts to the canonical parts). *)
type witness = int array

(** [roles_of ~eq inputs] derives a role array (length
    [Array.length inputs + 1], header slot first) from an initial input
    assignment: processes with [eq]-equal inputs share a role.  This is
    the finest sound partition for a sweep seeded at that assignment. *)
val roles_of : eq:('v -> 'v -> bool) -> 'v array -> int array

(** [sort ~roles parts] is the canonical part array (each role class's
    parts sorted lexicographically into the class's own positions) and
    its witness.  Invariant under role-respecting permutations of
    [parts]; idempotent. *)
val sort : roles:int array -> string array -> string array * witness

(** [render parts] is the self-delimiting (length-prefixed) string
    encoding of a part array — injective whatever bytes the parts
    contain. *)
val render : string array -> string

(** [key ~roles parts] is [render (fst (sort ~roles parts))] — the
    orbit's dedup key. *)
val key : roles:int array -> string array -> string

(** [weight ~roles parts] is the orbit size |G| / |Stab(parts)| of the
    state under the role-respecting group G: per class,
    |class|! / prod (multiplicity!). *)
val weight : roles:int array -> string array -> int

(** [apply_witness ~witness parts] permutes [parts] by the witness —
    [apply_witness ~witness:(snd (sort ~roles p)) p = fst (sort ~roles p)]. *)
val apply_witness : witness:witness -> string array -> string array
