(* Unit and property tests for layered_core. *)

open Layered_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Value / Vset *)

let test_value_basics () =
  check_int "zero" 0 Value.zero;
  check_int "one" 1 Value.one;
  check "equal" true (Value.equal (Value.of_int 5) 5);
  Alcotest.check_raises "of_int negative" (Invalid_argument "Value.of_int: out of range")
    (fun () -> ignore (Value.of_int (-1)));
  Alcotest.check_raises "of_int too large" (Invalid_argument "Value.of_int: out of range")
    (fun () -> ignore (Value.of_int 62))

let test_vset_basics () =
  let s = Vset.of_list [ 3; 1; 4; 1 ] in
  check_int "cardinal dedups" 3 (Vset.cardinal s);
  Alcotest.(check (list int)) "elements sorted" [ 1; 3; 4 ] (Vset.elements s);
  check "mem" true (Vset.mem 3 s);
  check "not mem" false (Vset.mem 2 s);
  check "empty" true (Vset.is_empty Vset.empty);
  check "subset" true (Vset.subset (Vset.of_list [ 1; 3 ]) s);
  check "not subset" false (Vset.subset (Vset.of_list [ 1; 2 ]) s);
  check "intersects" true (Vset.intersects s (Vset.singleton 4));
  check "no intersect" false (Vset.intersects s (Vset.singleton 2))

let vset_gen = QCheck.Gen.(map Vset.of_list (list_size (int_bound 8) (int_bound 20)))
let vset_arb = QCheck.make ~print:(Fmt.to_to_string Vset.pp) vset_gen

let prop_vset_union_inter =
  QCheck.Test.make ~name:"vset: distributivity and identities" ~count:200
    (QCheck.pair vset_arb vset_arb) (fun (a, b) ->
      Vset.equal (Vset.union a b) (Vset.union b a)
      && Vset.equal (Vset.inter a b) (Vset.inter b a)
      && Vset.subset (Vset.inter a b) a
      && Vset.subset a (Vset.union a b)
      && Vset.equal (Vset.union a a) a)

let prop_vset_roundtrip =
  QCheck.Test.make ~name:"vset: of_list/elements roundtrip" ~count:200 vset_arb (fun s ->
      Vset.equal (Vset.of_list (Vset.elements s)) s
      && List.length (Vset.elements s) = Vset.cardinal s)

(* ------------------------------------------------------------------ *)
(* Pid *)

let test_pid () =
  Alcotest.(check (list int)) "all" [ 1; 2; 3 ] (Pid.all 3);
  Alcotest.(check (list int)) "others" [ 1; 3 ] (Pid.others 3 2);
  Alcotest.check_raises "n too small" (Invalid_argument "Pid.all: need at least two processes")
    (fun () -> ignore (Pid.all 1))

(* ------------------------------------------------------------------ *)
(* Union_find *)

let test_union_find () =
  let uf = Union_find.create 6 in
  check_int "initial classes" 6 (Union_find.count uf);
  check "fresh union" true (Union_find.union uf 0 1);
  check "redundant union" false (Union_find.union uf 1 0);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 3);
  check "transitively same" true (Union_find.same uf 1 2);
  check "separate" false (Union_find.same uf 4 5);
  check_int "classes after unions" 3 (Union_find.count uf);
  check_int "class sizes" 3 (List.length (Union_find.classes uf))

let edges_gen n = QCheck.Gen.(list_size (int_bound 12) (pair (int_bound (n - 1)) (int_bound (n - 1))))

let prop_union_find_vs_graph =
  QCheck.Test.make ~name:"union_find matches graph components" ~count:200
    (QCheck.make (edges_gen 8)) (fun edges ->
      let uf = Union_find.create 8 in
      List.iter (fun (i, j) -> ignore (Union_find.union uf i j)) edges;
      let g = Graph.of_edges ~size:8 edges in
      List.length (Graph.components g) = Union_find.count uf)

(* ------------------------------------------------------------------ *)
(* Graph *)

let line n = Graph.of_edges ~size:n (List.init (n - 1) (fun i -> (i, i + 1)))

let test_graph_basics () =
  let g = line 5 in
  check "line connected" true (Graph.is_connected g);
  check_int "line diameter" 4 (Option.get (Graph.diameter g));
  check_int "line edges" 4 (Graph.edge_count g);
  Alcotest.(check (list int)) "path" [ 0; 1; 2; 3 ] (Option.get (Graph.path g 0 3));
  let disconnected = Graph.of_edges ~size:4 [ (0, 1); (2, 3) ] in
  check "disconnected" false (Graph.is_connected disconnected);
  check "no diameter" true (Graph.diameter disconnected = None);
  check "no path" true (Graph.path disconnected 0 3 = None);
  check_int "components" 2 (List.length (Graph.components disconnected));
  check_int "eccentricity centre" 2 (Option.get (Graph.eccentricity (line 5) 2))

let test_graph_self_loops_ignored () =
  let g = Graph.of_edges ~size:3 [ (0, 0); (1, 1) ] in
  check_int "no edges" 0 (Graph.edge_count g);
  check "disconnected" false (Graph.is_connected g)

let prop_graph_path_valid =
  QCheck.Test.make ~name:"graph: BFS paths are valid and shortest-ish" ~count:200
    (QCheck.make (edges_gen 7)) (fun edges ->
      let g = Graph.of_edges ~size:7 edges in
      match Graph.path g 0 6 with
      | None -> true
      | Some p ->
          List.hd p = 0
          && List.nth p (List.length p - 1) = 6
          && (let rec adjacent = function
                | a :: (b :: _ as rest) ->
                    List.mem b (Graph.neighbours g a) && adjacent rest
                | [ _ ] | [] -> true
              in
              adjacent p))

let prop_graph_diameter_symmetry =
  QCheck.Test.make ~name:"graph: diameter >= any eccentricity" ~count:200
    (QCheck.make (edges_gen 7)) (fun edges ->
      (* Make it connected by adding a spanning line. *)
      let edges = edges @ List.init 6 (fun i -> (i, i + 1)) in
      let g = Graph.of_edges ~size:7 edges in
      let d = Option.get (Graph.diameter g) in
      List.for_all
        (fun i -> Option.get (Graph.eccentricity g i) <= d)
        (List.init 7 Fun.id))

(* ------------------------------------------------------------------ *)
(* The reference BFS and the frontier on a synthetic branching system *)

module Budget = Layered_runtime.Budget
module Frontier = Layered_runtime.Frontier
module Pool = Layered_runtime.Pool
module Oracle = Layered_check.Oracle

(* Both traversals: the string-keyed reference and the id-keyed frontier
   on the one-job pool. *)
let reference ~succ ~depth x = Oracle.reachable ~succ ~key:string_of_int ~depth x

let frontier ~succ ~depth x =
  (Frontier.reachable Pool.serial ~succ ~ident:Fun.id ~depth x).Budget.value

(* States are ints; successors of i are 2i+1 and 2i+2 (infinite binary
   tree, explored to bounded depth). *)
let tree_succ i = [ (2 * i) + 1; (2 * i) + 2 ]

let test_explore_tree () =
  List.iter
    (fun (depth, n) ->
      check_int (Printf.sprintf "reference depth %d" depth) n
        (List.length
           (Oracle.reachable ~succ:tree_succ ~key:string_of_int ~depth 0));
      check_int (Printf.sprintf "frontier depth %d" depth) n
        (List.length (frontier ~succ:tree_succ ~depth 0)))
    [ (0, 1); (1, 3); (2, 7) ];
  Alcotest.(check (list int)) "same BFS order" (reference ~succ:tree_succ ~depth:3 0)
    (frontier ~succ:tree_succ ~depth:3 0);
  let exists ~depth i =
    (Frontier.exists_reachable Pool.serial ~succ:tree_succ ~ident:Fun.id ~depth
       ~pred:(fun j -> j = i) 0)
      .Budget.value
  in
  check "exists 5" true (exists ~depth:2 5);
  check "not exists 7 at depth 2" false (exists ~depth:2 7)

let test_explore_dedup () =
  (* A diamond: 0 -> {1, 2} -> 3; state 3 must be visited once. *)
  let succ = function 0 -> [ 1; 2 ] | 1 | 2 -> [ 3 ] | _ -> [ 3 ] in
  check_int "diamond dedup" 4 (List.length (reference ~succ ~depth:5 0));
  Alcotest.(check (list int)) "frontier = reference" (reference ~succ ~depth:5 0)
    (frontier ~succ ~depth:5 0)

(* ------------------------------------------------------------------ *)
(* Valence on a hand-built automaton *)

(* A small deciding system:
       0 --> 1 --> 3(decides 0, terminal)
         \-> 2 --> 4(decides 1, terminal)
   plus 5 --> 5 (never decides). *)
let toy_spec =
  let succ = function
    | 0 -> [ 1; 2 ]
    | 1 -> [ 3 ]
    | 2 -> [ 4 ]
    | 3 -> [ 3 ]
    | 4 -> [ 4 ]
    | _ -> [ 5 ]
  in
  let decided = function
    | 3 -> Vset.singleton Value.zero
    | 4 -> Vset.singleton Value.one
    | _ -> Vset.empty
  in
  let terminal i = i = 3 || i = 4 in
  { Valence.succ; ident = Fun.id; decided; terminal }

let test_valence_toy () =
  let v = Valence.create toy_spec in
  check "root bivalent" true (Valence.is_bivalent v ~depth:3 0);
  check "1 univalent-0" true
    (Valence.verdict_equal (Valence.classify v ~depth:3 1) (Valence.Univalent Value.zero));
  check "2 univalent-1" true
    (Valence.verdict_equal (Valence.classify v ~depth:3 2) (Valence.Univalent Value.one));
  check "5 unknown" true
    (Valence.verdict_equal (Valence.classify v ~depth:4 5) Valence.Unknown);
  (* Depth 0 at a non-terminal state sees nothing. *)
  check "root at depth 0 unknown" true
    (Valence.verdict_equal (Valence.classify v ~depth:0 0) Valence.Unknown);
  (* Terminal states classify immediately whatever the depth. *)
  check "terminal at depth 0" true
    (Valence.verdict_equal (Valence.classify v ~depth:0 3) (Valence.Univalent Value.zero));
  check "cache populated" true (Valence.cache_entries v > 0)

(* Random finite DAGs: state i has successors among {i+1, ..., n-1};
   states with no successors are terminal with a random decision. *)
let dag_gen =
  QCheck.Gen.(
    let n = 10 in
    list_size (return n) (pair (list_size (int_bound 2) (int_bound (n - 1))) (int_bound 1))
    |> map (fun rows -> Array.of_list rows))

let dag_spec dag =
  let n = Array.length dag in
  let succ i =
    if i >= n then []
    else List.filter (fun j -> j > i && j < n) (fst dag.(i)) |> List.sort_uniq compare
  in
  let terminal i = succ i = [] in
  let decided i = if terminal i then Vset.singleton (snd dag.(i)) else Vset.empty in
  { Valence.succ; ident = Fun.id; decided; terminal }

let prop_valence_monotone_depth =
  QCheck.Test.make ~name:"valence: vals monotone in depth" ~count:200
    (QCheck.make dag_gen) (fun dag ->
      let spec = dag_spec dag in
      let v = Valence.create spec in
      List.for_all
        (fun d ->
          Vset.subset (Valence.vals v ~depth:d 0) (Valence.vals v ~depth:(d + 1) 0))
        [ 0; 1; 2; 3; 5 ])

let prop_valence_exhaustive_is_exact =
  QCheck.Test.make ~name:"valence: deep classification matches brute force" ~count:200
    (QCheck.make dag_gen) (fun dag ->
      let spec = dag_spec dag in
      let v = Valence.create spec in
      let n = Array.length dag in
      (* Brute force: reachable terminal decisions from 0. *)
      let reach = reference ~succ:spec.Valence.succ ~depth:n 0 in
      let brute =
        List.fold_left (fun acc i -> Vset.union acc (spec.Valence.decided i)) Vset.empty reach
      in
      Vset.equal (Valence.vals v ~depth:n 0) brute)

(* ------------------------------------------------------------------ *)
(* Connectivity *)

let test_connectivity_basics () =
  let near a b = abs (a - b) <= 1 in
  check "connected range" true (Connectivity.connected ~rel:near [ 1; 2; 3; 4 ]);
  check "gap disconnects" false (Connectivity.connected ~rel:near [ 1; 2; 9; 10 ]);
  check_int "two components" 2
    (List.length (Connectivity.components ~rel:near [ 1; 2; 9; 10 ]));
  check_int "diameter" 3 (Option.get (Connectivity.diameter ~rel:near [ 1; 2; 3; 4 ]));
  let path =
    Connectivity.path ~rel:near ~equal:Int.equal [ 1; 2; 3; 4 ] ~src:1 ~dst:4
  in
  Alcotest.(check (list int)) "path" [ 1; 2; 3; 4 ] (Option.get path);
  check "empty connected" true (Connectivity.connected ~rel:near []);
  check "singleton connected" true (Connectivity.connected ~rel:near [ 7 ])

let test_valence_connected () =
  let vals = function
    | 0 -> Vset.of_list [ 0 ]
    | 1 -> Vset.of_list [ 0; 1 ]
    | 2 -> Vset.of_list [ 1 ]
    | _ -> Vset.empty
  in
  check "bridge connects" true (Connectivity.valence_connected ~vals [ 0; 1; 2 ]);
  check "no bridge" false (Connectivity.valence_connected ~vals [ 0; 2 ]);
  check "empty vset isolates" false (Connectivity.valence_connected ~vals [ 0; 3 ])

let test_valence_connected_by_verdict () =
  let classify = function
    | 0 -> Valence.Univalent Value.zero
    | 1 -> Valence.Bivalent
    | 2 -> Valence.Univalent Value.one
    | _ -> Valence.Unknown
  in
  check "bivalent present" true
    (Connectivity.valence_connected_by_verdict ~classify [ 0; 1; 2 ]);
  check "mixed univalent" false (Connectivity.valence_connected_by_verdict ~classify [ 0; 2 ]);
  check "same univalent" true (Connectivity.valence_connected_by_verdict ~classify [ 0; 0 ]);
  check "unknown breaks" false (Connectivity.valence_connected_by_verdict ~classify [ 0; 3 ])

(* Cross-validate the two valence-connectivity formulations on random
   exact instances. *)
let prop_valence_connectivity_agree =
  QCheck.Test.make ~name:"valence connectivity: graph vs verdict shortcut" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 6) (QCheck.make QCheck.Gen.(int_bound 2)))
    (fun codes ->
      (* code 0 = univalent 0, 1 = univalent 1, 2 = bivalent *)
      let vals = function
        | 0 -> Vset.singleton Value.zero
        | 1 -> Vset.singleton Value.one
        | _ -> Vset.of_list [ Value.zero; Value.one ]
      in
      let classify = function
        | 0 -> Valence.Univalent Value.zero
        | 1 -> Valence.Univalent Value.one
        | _ -> Valence.Bivalent
      in
      let a = Connectivity.valence_connected ~vals codes in
      let b = Connectivity.valence_connected_by_verdict ~classify codes in
      a = b)

(* ------------------------------------------------------------------ *)
(* Layering *)

let test_bivalent_chain_toy () =
  (* States (i, b): b bivalent forever if b = true; layers alternate. *)
  let succ (i, b) = if b then [ (i + 1, true); (i + 1, false) ] else [ (i + 1, false) ] in
  let classify (_, b) = if b then Valence.Bivalent else Valence.Univalent Value.zero in
  let chain = Layering.bivalent_chain ~classify ~succ ~length:5 (0, true) in
  check "complete" true chain.Layering.complete;
  check_int "length" 5 (List.length chain.Layering.states);
  check "all bivalent" true (List.for_all snd chain.Layering.states);
  let stuck_chain = Layering.bivalent_chain ~classify ~succ ~length:5 (0, false) in
  check "not bivalent start" false stuck_chain.Layering.complete;
  check_int "empty chain" 0 (List.length stuck_chain.Layering.states)

let test_layering_validate () =
  (* micro: i -> i+1; succ: i -> i+2 (valid, two micro steps) and a bogus
     successor function jumping backwards (invalid). *)
  let micro i = [ i + 1 ] in
  let valid i = [ i + 2 ] in
  let invalid i = [ i - 1 ] in
  check "valid layering" true
    (Layering.validate ~micro ~ident:Fun.id ~bound:3 ~states:[ 0; 5 ] valid = []);
  check_int "invalid layering reported" 2
    (List.length (Layering.validate ~micro ~ident:Fun.id ~bound:3 ~states:[ 0; 5 ] invalid))

let test_find_bivalent () =
  let classify i = if i = 3 then Valence.Bivalent else Valence.Unknown in
  check "found" true (Layering.find_bivalent ~classify [ 1; 2; 3; 4 ] = Some 3);
  check "absent" true (Layering.find_bivalent ~classify [ 1; 2 ] = None)

let test_labelled_chain () =
  (* Labelled successors: action "a" keeps bivalence, "b" kills it. *)
  let succ i = [ ("b", (i + 1) * 10); ("a", i + 1) ] in
  let classify i = if i mod 10 = 0 then Valence.Univalent Value.zero else Valence.Bivalent in
  let chain = Layering.bivalent_chain_labelled ~classify ~succ ~length:4 1 in
  check "complete" true chain.Layering.complete_l;
  check_int "three steps after start" 3 (List.length chain.Layering.steps);
  check "picked the bivalence-preserving action" true
    (List.for_all (fun (l, _) -> l = "a") chain.Layering.steps);
  let stuck =
    Layering.bivalent_chain_labelled ~classify ~succ:(fun i -> [ ("b", i * 10) ])
      ~length:4 1
  in
  check "stuck without bivalent successor" false stuck.Layering.complete_l;
  check_int "no steps" 0 (List.length stuck.Layering.steps)

(* ------------------------------------------------------------------ *)
(* Report *)

let test_report () =
  let rows =
    [
      Report.check ~id:"X" ~claim:"c" ~params:"p" ~expected:"e" ~measured:"m" true;
      Report.row ~id:"Y" ~claim:"c" ~params:"p" ~expected:"e" ~measured:"m" Report.Info;
    ]
  in
  check "all pass with info" true (Report.all_pass rows);
  let with_fail =
    rows @ [ Report.check ~id:"Z" ~claim:"c" ~params:"p" ~expected:"e" ~measured:"m" false ]
  in
  check "fail detected" false (Report.all_pass with_fail);
  let md = Report.to_markdown with_fail in
  let contains haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  check "markdown has header" true (String.length md > 0 && String.sub md 0 1 = "|");
  check "markdown mentions FAIL" true (contains md "FAIL");
  check "markdown mentions info" true (contains md "info")

(* ------------------------------------------------------------------ *)
(* Engine_core over a toy failure-recording model: process i's part is *)
(* its failure bit plus its decision, as in the sync engine.            *)

type toy = { decided : Value.t option array; down : bool array; slot : Intern.slot }

module Toy = Engine_core.Make (struct
  type state = toy
  type local = Value.t option

  let slot x = x.slot

  type view = Value.t option array * bool array

  let view x = (x.decided, x.down)
  let local_key = function Some v -> Value.to_string v | None -> "_"

  let parts x =
    Array.init
      (Array.length x.decided + 1)
      (fun i ->
        if i = 0 then ""
        else (if x.down.(i - 1) then "1" else "0") ^ local_key x.decided.(i - 1))

  let key x = String.concat "|" (Array.to_list (parts x))
  let locals x = x.decided
  let decision l = l
  let failed = Some (fun x -> x.down)
end)

let toy ~down decided = { decided; down; slot = Intern.fresh_slot () }
let v0 = Some Value.zero
let v1 = Some Value.one

(* Two states differing only at process 3 agree modulo 3 alone, so
   Definition 3.1 needs process 1 or 2 non-failed in both. *)
let test_core_failed_witness () =
  let pair down = (toy ~down [| v0; v0; v0 |], toy ~down [| v0; v0; v1 |]) in
  let x, y = pair [| true; true; false |] in
  check "agree modulo 3" true (Toy.agree_modulo x y 3);
  check "not modulo 1" false (Toy.agree_modulo x y 1);
  check "no live witness: not similar" false (Toy.similar x y);
  check_int "no live witness: no edge" 0 (Graph.edge_count (snd (Toy.similarity_graph [ x; y ])));
  List.iter
    (fun down ->
      let x, y = pair down in
      check "a live witness: similar" true (Toy.similar x y);
      Alcotest.(check (list int))
        "a live witness: one edge" [ 1 ]
        (Graph.neighbours (snd (Toy.similarity_graph [ x; y ])) 0))
    [ [| false; true; false |]; [| true; false; false |] ]

let test_core_failed_valence () =
  let down = [| true; false; false |] in
  let z = toy ~down [| v1; v0; v0 |] in
  check "failed decision left out" true
    (Vset.equal (Toy.decided_vset z) (Vset.singleton Value.zero));
  check "decisions still reports it" true (Toy.decisions z = [| v1; v0; v0 |]);
  check "failed undecided does not block terminal" true
    (Toy.terminal (toy ~down [| None; v0; v1 |]));
  check "live undecided blocks terminal" false (Toy.terminal (toy ~down [| v1; v0; None |]))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "layered_core"
    [
      ( "value-vset",
        [
          Alcotest.test_case "value basics" `Quick test_value_basics;
          Alcotest.test_case "vset basics" `Quick test_vset_basics;
          qt prop_vset_union_inter;
          qt prop_vset_roundtrip;
        ] );
      ("pid", [ Alcotest.test_case "pid" `Quick test_pid ]);
      ( "union-find",
        [ Alcotest.test_case "basics" `Quick test_union_find; qt prop_union_find_vs_graph ]
      );
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "self loops" `Quick test_graph_self_loops_ignored;
          qt prop_graph_path_valid;
          qt prop_graph_diameter_symmetry;
        ] );
      ( "explore",
        [
          Alcotest.test_case "binary tree" `Quick test_explore_tree;
          Alcotest.test_case "diamond dedup" `Quick test_explore_dedup;
        ] );
      ( "valence",
        [
          Alcotest.test_case "toy automaton" `Quick test_valence_toy;
          qt prop_valence_monotone_depth;
          qt prop_valence_exhaustive_is_exact;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "basics" `Quick test_connectivity_basics;
          Alcotest.test_case "valence connected" `Quick test_valence_connected;
          Alcotest.test_case "verdict shortcut" `Quick test_valence_connected_by_verdict;
          qt prop_valence_connectivity_agree;
        ] );
      ( "layering",
        [
          Alcotest.test_case "bivalent chain" `Quick test_bivalent_chain_toy;
          Alcotest.test_case "validate" `Quick test_layering_validate;
          Alcotest.test_case "find bivalent" `Quick test_find_bivalent;
          Alcotest.test_case "labelled chain" `Quick test_labelled_chain;
        ] );
      ("report", [ Alcotest.test_case "rows and markdown" `Quick test_report ]);
      ( "engine-core",
        [
          Alcotest.test_case "failed processes: similarity witness" `Quick
            test_core_failed_witness;
          Alcotest.test_case "failed processes: valence" `Quick test_core_failed_valence;
        ] );
    ]
