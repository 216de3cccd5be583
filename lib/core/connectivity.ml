(* The caller supplies the graph construction — typically an engine's
   bucketed [similarity_graph] — and connectivity questions reduce to
   {!Graph} algorithms; the [~rel] forms use the all-pairs reference. *)

type 'a graph_builder = 'a list -> 'a array * Graph.t

let connected_via ~(graph : 'a graph_builder) states =
  let _, g = graph states in
  Graph.is_connected g

let components_via ~(graph : 'a graph_builder) states =
  let arr, g = graph states in
  List.map (List.map (fun i -> arr.(i))) (Graph.components g)

let diameter_via ~(graph : 'a graph_builder) states =
  let _, g = graph states in
  Graph.diameter g

let connected ~rel = connected_via ~graph:(Simgraph.pairwise ~rel)
let components ~rel = components_via ~graph:(Simgraph.pairwise ~rel)
let diameter ~rel = diameter_via ~graph:(Simgraph.pairwise ~rel)

let index_of ~equal arr x =
  let n = Array.length arr in
  let rec go i = if i >= n then None else if equal arr.(i) x then Some i else go (i + 1) in
  go 0

let path ~rel ~equal states ~src ~dst =
  let arr, g = Simgraph.pairwise ~rel states in
  match (index_of ~equal arr src, index_of ~equal arr dst) with
  | Some i, Some j ->
      Option.map (List.map (fun k -> arr.(k))) (Graph.path g i j)
  | None, _ | _, None -> invalid_arg "Connectivity.path: endpoint not in state set"

let valence_connected ~vals states =
  let cached = List.map (fun x -> vals x) states in
  let arr = Array.of_list cached in
  let g =
    Graph.of_pred ~size:(Array.length arr) (fun i j -> Vset.intersects arr.(i) arr.(j))
  in
  Graph.is_connected g

let valence_connected_by_verdict ~classify states =
  match states with
  | [] -> true
  | _ :: _ ->
      let verdicts = List.map classify states in
      let exists_bivalent = List.exists (fun v -> v = Valence.Bivalent) verdicts in
      exists_bivalent
      ||
      (match verdicts with
      | Valence.Univalent v :: rest ->
          List.for_all (fun w -> Valence.verdict_equal w (Valence.Univalent v)) rest
      | Valence.Bivalent :: _ | Valence.Unknown :: _ | [] -> false)
