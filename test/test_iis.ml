(* Tests for the iterated immediate-snapshot substrate. *)

open Layered_core
module Iis = Layered_iis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module P = (val Layered_protocols.Iis_voting.make ~horizon:2)
module E = Iis.Engine.Make (P)

let initial inputs = E.initial ~inputs:(Array.of_list inputs)

(* ------------------------------------------------------------------ *)
(* Ordered partitions *)

let test_partition_counts () =
  List.iter
    (fun (n, expected) ->
      check_int
        (Printf.sprintf "Fubini(%d)" n)
        expected
        (List.length (Iis.Engine.partitions ~n));
      check_int "closed form agrees" expected (Iis.Engine.fubini n))
    [ (2, 3); (3, 13); (4, 75) ]

let test_partitions_are_partitions () =
  List.iter
    (fun blocks ->
      check "no empty block" true (List.for_all (fun b -> b <> []) blocks);
      check "covers {1..3}" true
        (List.sort compare (List.concat blocks) = [ 1; 2; 3 ]))
    (Iis.Engine.partitions ~n:3)

let test_partitions_distinct () =
  let ps = Iis.Engine.partitions ~n:3 in
  check_int "no duplicates" (List.length ps) (List.length (List.sort_uniq compare ps))

(* ------------------------------------------------------------------ *)
(* Round semantics *)

let test_one_block_full_view () =
  (* Everyone in one concurrency class: all see all, preferences collapse
     to the global minimum. *)
  let x = initial [ 2; 1; 0 ] in
  let y = E.apply x [ [ 1; 2; 3 ] ] in
  let z = E.apply y [ [ 1; 2; 3 ] ] in
  check "all decide global min" true (Vset.equal (E.decided_vset z) (Vset.singleton 0))

let test_singleton_blocks_prefix_views () =
  (* [ {3}; {2}; {1} ]: p3 sees only itself, p2 sees {2,3}, p1 all. *)
  let x = initial [ 2; 1; 0 ] in
  let y = E.apply x [ [ 3 ]; [ 2 ]; [ 1 ] ] in
  let z = E.apply y [ [ 3 ]; [ 2 ]; [ 1 ] ] in
  (* p3 never sees a smaller value than its own 0... p3's input is 0: it
     keeps 0 and decides 0.  p2 (input 1) sees p3's 0 in round 1 -> 0.
     p1 (input 2) sees everything -> 0. *)
  check "schedule order does not hide the minimum here" true
    (Vset.equal (E.decided_vset z) (Vset.singleton 0));
  (* Run it the other way: the minimum-holder last. *)
  let y' = E.apply x [ [ 1 ]; [ 2 ]; [ 3 ] ] in
  let z' = E.apply y' [ [ 1 ]; [ 2 ]; [ 3 ] ] in
  (* p1 (input 2) saw only itself in round 1, then in round 2 sees
     prefs written at round 2 start: p1 keeps 2 after round 1, so in
     round 2 it sees only its own 2 -> decides 2; p2 decides 1; p3 0. *)
  check "first-scheduled process stays blind" true
    (Vset.equal (E.decided_vset z') (Vset.of_list [ 0; 1; 2 ]))

let test_invalid_partitions_rejected () =
  let x = initial [ 0; 1; 1 ] in
  Alcotest.check_raises "missing process" (Invalid_argument "Iis: blocks must partition {1..n}")
    (fun () -> ignore (E.apply x [ [ 1 ]; [ 2 ] ]));
  Alcotest.check_raises "duplicate process" (Invalid_argument "Iis: blocks must partition {1..n}")
    (fun () -> ignore (E.apply x [ [ 1; 2 ]; [ 2; 3 ] ]));
  Alcotest.check_raises "empty block" (Invalid_argument "Iis: empty block") (fun () ->
      ignore (E.apply x [ [ 1; 2; 3 ]; [] ]))

(* ------------------------------------------------------------------ *)
(* Protocol-contract guards *)

(* Deliberately broken protocols: a decision that changes, and one that
   is erased.  The layering's memoised steps pass the same guards as
   [apply]. *)
module Broken (F : sig
  val flip : bool
end) : Iis.Protocol.S = struct
  type local = int (* completed rounds *)
  type reg = unit

  let name = "broken"
  let init ~n:_ ~pid:_ ~input:_ = 0
  let write ~n:_ ~pid:_ _ = ()
  let step ~n:_ ~pid:_ rounds ~snapshot:_ = rounds + 1

  let decision rounds =
    if F.flip then Some (rounds mod 2) else if rounds = 0 then Some Value.zero else None

  let key = string_of_int
  let reg_key () = ""
  let pp = Format.pp_print_int
end

let test_contract_guards () =
  List.iter
    (fun (flip, msg) ->
      let module B = Iis.Engine.Make (Broken (struct
        let flip = flip
      end)) in
      let x = B.initial ~inputs:[| 0; 1; 1 |] in
      Alcotest.check_raises ("apply: " ^ msg) (Invalid_argument msg) (fun () ->
          ignore (B.apply x [ [ 2 ]; [ 1; 3 ] ]));
      Alcotest.check_raises ("layer: " ^ msg) (Invalid_argument msg) (fun () ->
          ignore (B.layer x)))
    [
      (true, "Iis: protocol violated write-once decision");
      (false, "Iis: protocol erased a decision");
    ]

(* ------------------------------------------------------------------ *)
(* Similarity structure of a layer *)

let test_adjacent_partitions_similar () =
  let x = initial [ 0; 1; 1 ] in
  (* Merging the two blocks of [{1},{2},{3}] at position 1 changes only
     p1's view (it now sees p2's write). *)
  let a = E.apply x [ [ 1 ]; [ 2 ]; [ 3 ] ] in
  let b = E.apply x [ [ 1; 2 ]; [ 3 ] ] in
  check "merge changes one view" true (E.agree_modulo a b 1);
  (* Splitting the merged block the other way changes only p2. *)
  let c = E.apply x [ [ 2 ]; [ 1 ]; [ 3 ] ] in
  check "split changes the other view" true (E.agree_modulo b c 2)

let test_layer_connected () =
  let x = initial [ 0; 1; 1 ] in
  check "layer similarity connected" true
    (Connectivity.connected ~rel:E.similar (E.layer x));
  check "layer deduplicated" true
    (let layer = E.layer x in
     List.length (List.sort_uniq compare (List.map E.key layer)) = List.length layer)

(* ------------------------------------------------------------------ *)
(* Properties *)

let runs_arb =
  QCheck.make
    QCheck.Gen.(
      pair (list_repeat 3 (int_bound 1))
        (list_size (int_range 0 3) (oneofl (Iis.Engine.partitions ~n:3))))

let prop_rounds_count =
  QCheck.Test.make ~name:"iis: rounds count applied partitions" ~count:200 runs_arb
    (fun (inputs, parts) ->
      let x = List.fold_left E.apply (initial inputs) parts in
      x.E.round = List.length parts)

let prop_validity =
  QCheck.Test.make ~name:"iis: decisions are input values" ~count:200 runs_arb
    (fun (inputs, parts) ->
      let x = List.fold_left E.apply (initial inputs) parts in
      Vset.subset (E.decided_vset x) (Vset.of_list inputs))

let prop_deterministic =
  QCheck.Test.make ~name:"iis: apply is deterministic" ~count:100 runs_arb
    (fun (inputs, parts) ->
      let run () = E.key (List.fold_left E.apply (initial inputs) parts) in
      String.equal (run ()) (run ()))

(* A layer's shared protocol work: [layer] runs each [P.write] at most
   once per process and each [P.step] at most once per (process, view). *)
module Counted = Iis.Engine.Make (struct
  include P

  let write ~n ~pid l =
    Calls.once (Printf.sprintf "write %d" pid);
    P.write ~n ~pid l

  let step ~n ~pid l ~snapshot =
    Calls.once
      (Printf.sprintf "step %d of %s" pid
         (String.concat "," (List.map (fun (k, _) -> string_of_int k) snapshot)));
    P.step ~n ~pid l ~snapshot
end)

let test_layer_work_bound () =
  Calls.check Counted.layer (fun n ->
      Counted.initial ~inputs:(Array.init n (fun i -> if i = 0 then 0 else 1)))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "layered_iis"
    [
      ( "partitions",
        [
          Alcotest.test_case "counts" `Quick test_partition_counts;
          Alcotest.test_case "are partitions" `Quick test_partitions_are_partitions;
          Alcotest.test_case "distinct" `Quick test_partitions_distinct;
        ] );
      ( "rounds",
        [
          Alcotest.test_case "one block" `Quick test_one_block_full_view;
          Alcotest.test_case "singleton blocks" `Quick test_singleton_blocks_prefix_views;
          Alcotest.test_case "invalid rejected" `Quick test_invalid_partitions_rejected;
          Alcotest.test_case "contract guards" `Quick test_contract_guards;
          Alcotest.test_case "layer work bound" `Quick test_layer_work_bound;
        ] );
      ( "similarity",
        [
          Alcotest.test_case "adjacent partitions" `Quick test_adjacent_partitions_similar;
          Alcotest.test_case "layer connected" `Quick test_layer_connected;
        ] );
      ("properties", [ qt prop_rounds_count; qt prop_validity; qt prop_deterministic ]);
    ]
