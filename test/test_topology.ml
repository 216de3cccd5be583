(* Unit and property tests for layered_topology. *)

open Layered_core
open Layered_topology

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sx assoc = Simplex.of_assoc assoc

(* ------------------------------------------------------------------ *)
(* Vertex / Simplex *)

let test_vertex () =
  let v = Vertex.make 2 1 in
  check "equal" true (Vertex.equal v (Vertex.make 2 1));
  check "pid differs" false (Vertex.equal v (Vertex.make 3 1));
  check "value differs" false (Vertex.equal v (Vertex.make 2 0));
  check "ordered by pid first" true (Vertex.compare (Vertex.make 1 9) (Vertex.make 2 0) < 0)

let test_simplex_basics () =
  let s = sx [ (3, 1); (1, 0); (2, 1) ] in
  check_int "size" 3 (Simplex.size s);
  Alcotest.(check (list int)) "pids sorted" [ 1; 2; 3 ] (Simplex.pids s);
  Alcotest.(check (list int)) "values follow pid order" [ 0; 1; 1 ] (Simplex.values s);
  check "value_of" true (Simplex.value_of s 3 = Some 1);
  check "value_of absent" true (Simplex.value_of s 5 = None);
  check "value_set" true (Vset.equal (Simplex.value_set s) (Vset.of_list [ 0; 1 ]));
  Alcotest.check_raises "duplicate pid" (Invalid_argument "Simplex.of_vertices: duplicate pid")
    (fun () -> ignore (sx [ (1, 0); (1, 1) ]))

let test_simplex_operations () =
  let s = sx [ (1, 0); (2, 1) ] in
  let t = sx [ (2, 1); (3, 0) ] in
  check "subset of itself" true (Simplex.subset s s);
  check "inter" true (Simplex.equal (Simplex.inter s t) (sx [ (2, 1) ]));
  check "compatible union" true
    (match Simplex.compatible_union s t with
    | Some u -> Simplex.equal u (sx [ (1, 0); (2, 1); (3, 0) ])
    | None -> false);
  check "conflicting union" true (Simplex.compatible_union s (sx [ (2, 0) ]) = None);
  check "remove_pid" true (Simplex.equal (Simplex.remove_pid 1 s) (sx [ (2, 1) ]));
  check "restrict" true (Simplex.equal (Simplex.restrict [ 2; 3 ] s) (sx [ (2, 1) ]));
  check_int "faces count" 4 (List.length (Simplex.faces s));
  check "empty face present" true (List.exists Simplex.is_empty (Simplex.faces s))

let simplex_gen =
  QCheck.Gen.(
    list_size (int_range 0 4) (pair (int_range 1 5) (int_bound 2))
    |> map (fun assoc ->
           (* Dedup pids, keeping the first occurrence. *)
           let seen = Hashtbl.create 8 in
           List.filter
             (fun (p, _) ->
               if Hashtbl.mem seen p then false
               else begin
                 Hashtbl.add seen p ();
                 true
               end)
             assoc
           |> Simplex.of_assoc))

let simplex_arb = QCheck.make ~print:(Fmt.to_to_string Simplex.pp) simplex_gen

let prop_faces_are_subsets =
  QCheck.Test.make ~name:"simplex: faces are exactly the sub-simplexes" ~count:200
    simplex_arb (fun s ->
      let faces = Simplex.faces s in
      List.length faces = 1 lsl Simplex.size s
      && List.for_all (fun f -> Simplex.subset f s) faces
      && List.length (List.sort_uniq Simplex.compare faces) = List.length faces)

let prop_inter_commutative =
  QCheck.Test.make ~name:"simplex: inter commutative and bounded" ~count:200
    (QCheck.pair simplex_arb simplex_arb) (fun (s, t) ->
      Simplex.equal (Simplex.inter s t) (Simplex.inter t s)
      && Simplex.size (Simplex.inter s t) <= min (Simplex.size s) (Simplex.size t))

(* ------------------------------------------------------------------ *)
(* Complex *)

let test_complex_membership () =
  let c = Complex.of_simplexes [ sx [ (1, 0); (2, 0) ]; sx [ (2, 0); (3, 1) ] ] in
  check "generator member" true (Complex.mem (sx [ (1, 0); (2, 0) ]) c);
  check "face member" true (Complex.mem (sx [ (2, 0) ]) c);
  check "empty member" true (Complex.mem Simplex.empty c);
  check "non-member" false (Complex.mem (sx [ (1, 0); (3, 1) ]) c);
  check_int "dimension" 2 (Complex.dimension c);
  check_int "2-simplexes" 2 (List.length (Complex.simplexes_of_size c 2));
  (* Distinct vertices: (1,0), (2,0) shared, (3,1). *)
  check_int "1-simplexes" 3 (List.length (Complex.simplexes_of_size c 1))

let test_complex_normalise () =
  let c =
    Complex.of_simplexes [ sx [ (1, 0) ]; sx [ (1, 0); (2, 0) ]; sx [ (1, 0); (2, 0) ] ]
  in
  check_int "contained generators dropped" 1 (List.length (Complex.generators c))

let test_complex_union_subcomplex () =
  let a = Complex.of_simplexes [ sx [ (1, 0); (2, 0) ] ] in
  let b = Complex.of_simplexes [ sx [ (2, 0); (3, 0) ] ] in
  let u = Complex.union a b in
  check "subcomplex left" true (Complex.subcomplex a u);
  check "subcomplex right" true (Complex.subcomplex b u);
  check "not subcomplex" false (Complex.subcomplex u a)

(* ------------------------------------------------------------------ *)
(* Thick connectivity *)

let triangle v = sx [ (1, v); (2, v); (3, v) ]

let test_thick_disjoint () =
  let c = Complex.of_simplexes [ triangle 0; triangle 1 ] in
  check "disjoint triangles not 1-thick" false (Thick.k_thick_connected ~n:3 ~k:1 c);
  check "witness exists" true (Thick.disconnected_witness ~n:3 ~k:1 c <> None);
  (* k = 3 allows empty intersections: everything is connected. *)
  check "3-thick connects anything" true (Thick.k_thick_connected ~n:3 ~k:3 c)

let test_thick_shared_face () =
  let a = sx [ (1, 0); (2, 0); (3, 0) ] in
  let b = sx [ (1, 0); (2, 0); (3, 1) ] in
  let c = Complex.of_simplexes [ a; b ] in
  check "share a 2-face: 1-thick" true (Thick.k_thick_connected ~n:3 ~k:1 c);
  check_int "diameter 1" 1 (Option.get (Thick.diameter ~n:3 ~k:1 c));
  check "no witness" true (Thick.disconnected_witness ~n:3 ~k:1 c = None)

let test_similarity_graph () =
  let c = Complex.of_simplexes [ triangle 0; sx [ (1, 0); (2, 0); (3, 1) ] ] in
  let simplexes, g = Complex.similarity_graph c ~size:3 in
  check_int "two 3-simplexes" 2 (Array.length simplexes);
  check "adjacent" true (Graph.is_connected g)

(* ------------------------------------------------------------------ *)
(* Tasks *)

let test_task_shapes () =
  let t = Task.consensus ~n:3 ~values:[ 0; 1 ] in
  check_int "input assignments" 8 (List.length (Task.input_assignments t));
  check_int "consensus outputs" 2 (List.length (Complex.generators t.Task.outputs));
  let k2 = Task.k_set_agreement ~n:3 ~k:2 ~values:[ 0; 1; 2 ] in
  check_int "kset inputs" 27 (List.length (Task.input_assignments k2));
  (* 3-assignments over 3 values with <= 2 distinct = 27 - 6 all-distinct *)
  check_int "kset outputs" 21 (List.length (Complex.simplexes_of_size k2.Task.outputs 3))

let test_task_delta_within_outputs () =
  List.iter
    (fun task ->
      List.iter
        (fun s ->
          check
            (Printf.sprintf "%s delta within outputs" task.Task.name)
            true
            (Complex.subcomplex (task.Task.delta s) task.Task.outputs))
        (Task.input_assignments task))
    [
      Task.consensus ~n:3 ~values:[ 0; 1 ];
      Task.weak_consensus ~n:3;
      Task.identity ~n:3 ~values:[ 0; 1 ];
      Task.fixed_value ~n:3;
      Task.election ~n:3;
      Task.k_set_agreement ~n:3 ~k:2 ~values:[ 0; 1 ];
    ]

let test_task_delta_unanimous () =
  let t = Task.consensus ~n:3 ~values:[ 0; 1 ] in
  let all0 = sx [ (1, 0); (2, 0); (3, 0) ] in
  check_int "unanimous input forces one output" 1
    (List.length (Complex.simplexes_of_size (t.Task.delta all0) 3))

(* ------------------------------------------------------------------ *)
(* Solvability *)

let test_solvability_consensus () =
  let t = Task.consensus ~n:3 ~values:[ 0; 1 ] in
  let cond = Solvability.passes_necessary_condition t in
  let frag = Solvability.forced_fragmentation t in
  check "consensus fails condition" false cond.Solvability.ok;
  check "consensus fragments" true frag.Solvability.ok;
  check_int "two forced corners" 2 (List.length (Solvability.forced_outputs t))

let test_solvability_identity () =
  let t = Task.identity ~n:3 ~values:[ 0; 1 ] in
  check "identity passes" true (Solvability.passes_necessary_condition t).Solvability.ok;
  check "identity does not fragment" false
    (Solvability.forced_fragmentation t).Solvability.ok

(* ------------------------------------------------------------------ *)
(* Covering *)

let test_covering_membership () =
  let c0 = Complex.of_simplexes [ triangle 0 ] in
  let c1 = Complex.of_simplexes [ triangle 1 ] in
  let cover = Covering.of_complexes c0 c1 in
  check "partial all-0 in O0" true (cover.Covering.mem0 (sx [ (1, 0); (2, 0) ]));
  check "partial all-0 not in O1" false (cover.Covering.mem1 (sx [ (1, 0); (2, 0) ]));
  check "is_covering positive" true (Covering.is_covering cover [ triangle 0; triangle 1 ]);
  check "is_covering misses mixed" false
    (Covering.is_covering cover [ triangle 0; sx [ (1, 0); (2, 1); (3, 1) ] ]);
  check "is_covering needs both sides" false (Covering.is_covering cover [ triangle 0 ])

let test_covering_engine_toy () =
  (* Explicit successor map where terminal states carry full output
     simplexes: 0 branches to a 0-deciding and a 1-deciding terminal. *)
  let outputs = [| Simplex.empty; triangle 0; triangle 1 |] in
  let succ = function 0 -> [ 1; 2 ] | i -> [ i ] in
  let terminal i = i > 0 in
  let spec = { Valence.succ; ident = Fun.id; decided = (fun _ -> Vset.empty); terminal } in
  let cover =
    Covering.of_complexes
      (Complex.of_simplexes [ triangle 0 ])
      (Complex.of_simplexes [ triangle 1 ])
  in
  let output i = outputs.(i) in
  let v = Valence.create (Covering.valence_spec cover ~output spec) in
  check "root covering-bivalent" true
    (Valence.verdict_equal (Valence.classify v ~depth:2 0) Valence.Bivalent);
  check "leaf univalent" true
    (Valence.verdict_equal (Valence.classify v ~depth:2 1)
       (Valence.Univalent Value.zero))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "layered_topology"
    [
      ( "simplex",
        [
          Alcotest.test_case "vertex" `Quick test_vertex;
          Alcotest.test_case "basics" `Quick test_simplex_basics;
          Alcotest.test_case "operations" `Quick test_simplex_operations;
          qt prop_faces_are_subsets;
          qt prop_inter_commutative;
        ] );
      ( "complex",
        [
          Alcotest.test_case "membership" `Quick test_complex_membership;
          Alcotest.test_case "normalise" `Quick test_complex_normalise;
          Alcotest.test_case "union/subcomplex" `Quick test_complex_union_subcomplex;
        ] );
      ( "thick",
        [
          Alcotest.test_case "disjoint" `Quick test_thick_disjoint;
          Alcotest.test_case "shared face" `Quick test_thick_shared_face;
          Alcotest.test_case "similarity graph" `Quick test_similarity_graph;
        ] );
      ( "task",
        [
          Alcotest.test_case "shapes" `Quick test_task_shapes;
          Alcotest.test_case "delta within outputs" `Quick test_task_delta_within_outputs;
          Alcotest.test_case "unanimous forcing" `Quick test_task_delta_unanimous;
        ] );
      ( "solvability",
        [
          Alcotest.test_case "consensus" `Quick test_solvability_consensus;
          Alcotest.test_case "identity" `Quick test_solvability_identity;
        ] );
      ( "covering",
        [
          Alcotest.test_case "membership" `Quick test_covering_membership;
          Alcotest.test_case "engine" `Quick test_covering_engine_toy;
        ] );
    ]
