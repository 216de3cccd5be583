(** Connectivity of finite sets of states under the paper's two relations
    (Definition 3.1):

    - {e similarity} [x ~s y]: some process [j] exists such that [x] and [y]
      agree modulo [j] and some other process is non-failed in both — the
      classical indistinguishability relation;
    - {e shared valence} [x ~v y]: some value [v] exists for which both
      states are [v]-valent — the relation the paper introduces.

    The relations are supplied by the caller (models define similarity; the
    {!Valence} engine defines reachable value sets), and this module reduces
    connectivity questions to {!Graph} algorithms, returning explicit
    witness paths where useful. *)

(** [connected ~rel states] — is the graph [(states, rel)] connected?
    [rel] is assumed symmetric and is queried once per unordered pair.
    The empty list and singletons are connected. *)
val connected : rel:('a -> 'a -> bool) -> 'a list -> bool

(** Connected components, as lists of states (each in input order). *)
val components : rel:('a -> 'a -> bool) -> 'a list -> 'a list list

(** [path ~rel states ~src ~dst] is a shortest chain
    [src = z0 ~rel z1 ~rel ... ~rel zk = dst] inside [states], if one
    exists.  [src] and [dst] are identified with elements of [states] by
    physical or structural equality of their indices: both must be members
    of [states] (compared with [equal]). *)
val path :
  rel:('a -> 'a -> bool) ->
  equal:('a -> 'a -> bool) ->
  'a list ->
  src:'a ->
  dst:'a ->
  'a list option

(** Diameter of [(states, rel)] — the [~s]-diameter of Section 7 when [rel]
    is similarity.  [None] if disconnected or empty. *)
val diameter : rel:('a -> 'a -> bool) -> 'a list -> int option

(** {1 Builder-based variants}

    The [~rel] functions above probe all O(m²) pairs
    ({!Simgraph.pairwise}).  The [_via] variants take the graph
    construction itself — typically an engine's [similarity_graph], the
    {!Simgraph} bucketed builder — so experiments get the O(m·n)
    construction without repeating the plumbing. *)

(** The shape of an engine's [similarity_graph]: states to (node array,
    graph). *)
type 'a graph_builder = 'a list -> 'a array * Graph.t

val connected_via : graph:'a graph_builder -> 'a list -> bool
val components_via : graph:'a graph_builder -> 'a list -> 'a list list
val diameter_via : graph:'a graph_builder -> 'a list -> int option

(** [valence_connected ~vals states] — connectivity of [(states, ~v)] where
    [x ~v y] iff [vals x] and [vals y] intersect.  A state with an empty
    value set is isolated (conservative for depth-bounded valence). *)
val valence_connected : vals:('a -> Vset.t) -> 'a list -> bool

(** The paper's characterisation: a set is valence connected exactly if all
    states are univalent with a common value, or some state is bivalent.
    [valence_connected_by_verdict] checks it from verdicts alone and is
    used to cross-validate {!valence_connected} in tests; it requires every
    verdict to be exact ([Unknown] makes it return [false]). *)
val valence_connected_by_verdict : classify:('a -> Valence.verdict) -> 'a list -> bool
