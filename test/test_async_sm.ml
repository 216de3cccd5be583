(* Tests for the asynchronous shared-memory engine and its synchronic
   layering. *)

open Layered_core
module Sm = Layered_async_sm

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module P = (val Layered_protocols.Sm_voting.make ~horizon:2)
module E = Sm.Engine.Make (P)

let initial inputs = E.initial ~inputs:(Array.of_list inputs)
let act slow mode = { Sm.Engine.slow; mode }

(* ------------------------------------------------------------------ *)
(* Phase mechanics *)

let test_initial () =
  let x = initial [ 0; 1; 1 ] in
  check_int "phase" 0 x.E.phase;
  check "registers empty" true (Array.for_all (fun r -> r = None) x.E.regs);
  check "not terminal" false (E.terminal x)

let test_action_enumeration () =
  (* n choices of slow process x (Absent + k in 0..n). *)
  check_int "action count" (3 * 5) (List.length (E.actions ~n:3))

let test_absent_process_untouched () =
  let x = initial [ 0; 1; 1 ] in
  let y = E.apply x (act 2 Sm.Engine.Absent) in
  check "p2 local unchanged" true
    (String.equal (P.key y.E.locals.(1)) (P.key x.E.locals.(1)));
  check "p2 register still empty" true (y.E.regs.(1) = None);
  check "p1 wrote" true (y.E.regs.(0) <> None);
  check_int "phase advanced" 1 y.E.phase

let test_jk_independence_of_j () =
  (* The paper: the state after action (j, 0) is independent of j. *)
  let x = initial [ 0; 1; 1 ] in
  let states =
    List.map (fun j -> E.apply x (act j (Sm.Engine.Read_late 0))) [ 1; 2; 3 ]
  in
  match states with
  | [ a; b; c ] ->
      check "j=1 = j=2" true (E.equal a b);
      check "j=2 = j=3" true (E.equal b c)
  | _ -> assert false

let test_read_late_k_semantics () =
  (* With (j, n), proper processes scan before j's write: register V_j
     visible only to j itself next phase. *)
  let x = initial [ 0; 1; 1 ] in
  let early = E.apply x (act 1 (Sm.Engine.Read_late 3)) in
  let late = E.apply x (act 1 (Sm.Engine.Read_late 0)) in
  (* In both cases all registers end up written... *)
  check "all wrote (early)" true (Array.for_all (fun r -> r <> None) early.E.regs);
  check "all wrote (late)" true (Array.for_all (fun r -> r <> None) late.E.regs);
  (* ...but the scans differ: with k=n proper processes missed V_1 = 0, so
     p2/p3 kept preference 1; with k=0 everyone saw 0 and adopted it. *)
  check "late readers adopt the minimum" false
    (String.equal (P.key early.E.locals.(1)) (P.key late.E.locals.(1)))

(* An out-of-range slow process or read-late count is refused, never
   run as some other phase. *)
let test_bad_actions_rejected () =
  let x = initial [ 0; 1; 1 ] in
  let rejects msg a =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (E.apply x a))
  in
  List.iter
    (fun j ->
      rejects "Engine.apply: bad slow process" (act j Sm.Engine.Absent);
      rejects "Engine.apply: bad slow process" (act j (Sm.Engine.Read_late 1)))
    [ 0; 4 ];
  List.iter
    (fun k -> rejects "Engine.apply: bad read-late count" (act 1 (Sm.Engine.Read_late k)))
    [ -1; 4 ]

let test_compile_matches_apply () =
  let x = initial [ 0; 1; 1 ] in
  List.for_all
    (fun a ->
      let via_events = E.apply_events x (E.compile x a) in
      E.equal via_events (E.apply x a))
    (E.actions ~n:3)
  |> check "apply = apply_events . compile" true

let test_schedule_legality () =
  check "write then scan legal" true
    (E.schedule_legal [ Sm.Engine.Write 1; Sm.Engine.Scan 1 ]);
  check "scan before write illegal" false
    (E.schedule_legal [ Sm.Engine.Scan 1; Sm.Engine.Write 1 ]);
  check "double write illegal" false
    (E.schedule_legal [ Sm.Engine.Write 1; Sm.Engine.Write 1 ]);
  check "double scan illegal" false
    (E.schedule_legal [ Sm.Engine.Scan 1; Sm.Engine.Scan 1 ]);
  check "independent processes fine" true
    (E.schedule_legal
       [ Sm.Engine.Write 1; Sm.Engine.Write 2; Sm.Engine.Scan 2; Sm.Engine.Scan 1 ])

(* A layer's shared protocol work: [srw] runs each [P.write] at most
   once per process and each [P.step] at most once per (process,
   register vector). *)
module Counted = Sm.Engine.Make (struct
  include P

  let write ~n ~pid l =
    Calls.once (Printf.sprintf "write %d" pid);
    P.write ~n ~pid l

  let step ~n ~pid l ~reads =
    Calls.once
      (Printf.sprintf "step %d of %s" pid
         (String.concat "|"
            (Array.to_list (Array.map (function Some r -> P.reg_key r | None -> "_") reads))));
    P.step ~n ~pid l ~reads
end)

let test_srw_work_bound () =
  Calls.check Counted.srw (fun n ->
      Counted.initial ~inputs:(Array.init n (fun i -> if i = 0 then 0 else 1)))

(* ------------------------------------------------------------------ *)
(* The Lemma 5.3 bridge, exhaustively at the initial states *)

let test_bridge_everywhere () =
  let initials = E.initial_states ~n:3 ~values:[ 0; 1 ] in
  check_int "eight initials" 8 (List.length initials);
  List.iter
    (fun x ->
      List.iter
        (fun j ->
          let y =
            E.apply (E.apply x (act j (Sm.Engine.Read_late 3))) (act j Sm.Engine.Absent)
          in
          let y' =
            E.apply (E.apply x (act j Sm.Engine.Absent)) (act j (Sm.Engine.Read_late 0))
          in
          check "bridge modulo j" true (E.agree_modulo y y' j))
        [ 1; 2; 3 ])
    initials

(* ------------------------------------------------------------------ *)
(* Protocol-contract guards *)

(* Deliberately broken protocols: a decision that changes, and one that
   is erased.  [srw] runs each scan through the same guards as [apply]. *)
module Broken (F : sig
  val flip : bool
end) : Sm.Protocol.S = struct
  type local = int (* completed phases *)
  type reg = unit

  let name = "broken"
  let init ~n:_ ~pid:_ ~input:_ = 0
  let write ~n:_ ~pid:_ _ = Some ()
  let step ~n:_ ~pid:_ phases ~reads:_ = phases + 1

  let decision phases =
    if F.flip then Some (phases mod 2) else if phases = 0 then Some Value.zero else None

  let key = string_of_int
  let reg_key () = ""
  let pp = Format.pp_print_int
end

let test_contract_guards () =
  List.iter
    (fun (flip, msg) ->
      let module B = Sm.Engine.Make (Broken (struct
        let flip = flip
      end)) in
      let x = B.initial ~inputs:[| 0; 1; 1 |] in
      Alcotest.check_raises ("apply: " ^ msg) (Invalid_argument msg) (fun () ->
          ignore (B.apply x (act 1 (Sm.Engine.Read_late 1))));
      Alcotest.check_raises ("srw: " ^ msg) (Invalid_argument msg) (fun () ->
          ignore (B.srw x)))
    [
      (true, "Engine: protocol violated write-once decision");
      (false, "Engine: protocol erased a decision");
    ]

(* ------------------------------------------------------------------ *)
(* Properties over random schedules *)

let action_gen n =
  QCheck.Gen.(
    pair (int_range 1 n)
      (frequency [ (1, return None); (4, map Option.some (int_bound n)) ])
    |> map (fun (slow, mode) ->
           match mode with
           | None -> { Sm.Engine.slow; mode = Sm.Engine.Absent }
           | Some k -> { Sm.Engine.slow; mode = Sm.Engine.Read_late k }))

let run_gen =
  QCheck.Gen.(pair (list_repeat 3 (int_bound 1)) (list_size (int_range 0 4) (action_gen 3)))

let run_arb = QCheck.make run_gen

let fold_run (inputs, actions) = List.fold_left E.apply (initial inputs) actions

let prop_single_writer =
  QCheck.Test.make ~name:"sm: register V_i only changes via process i" ~count:200 run_arb
    (fun (inputs, actions) ->
      (* Apply actions one at a time; if process i was absent, V_i must be
         unchanged. *)
      let ok = ref true in
      let _final =
        List.fold_left
          (fun x a ->
            let y = E.apply x a in
            (match a.Sm.Engine.mode with
            | Sm.Engine.Absent ->
                let j = a.Sm.Engine.slow in
                let reg_key = function None -> "_" | Some r -> P.reg_key r in
                if
                  not
                    (String.equal
                       (reg_key x.E.regs.(j - 1))
                       (reg_key y.E.regs.(j - 1)))
                then ok := false
            | Sm.Engine.Read_late _ -> ());
            y)
          (initial inputs) actions
      in
      !ok)

let prop_phase_counts =
  QCheck.Test.make ~name:"sm: phases count applied actions" ~count:200 run_arb
    (fun ((_, actions) as run) -> (fold_run run).E.phase = List.length actions)

let prop_validity_of_preferences =
  QCheck.Test.make ~name:"sm: decisions are input values (validity)" ~count:200 run_arb
    (fun ((inputs, _) as run) ->
      let x = fold_run run in
      Vset.subset (E.decided_vset x) (Vset.of_list inputs))

let prop_srw_layer_deduped =
  QCheck.Test.make ~name:"sm: srw layers carry no duplicate states" ~count:50 run_arb
    (fun run ->
      let layer = E.srw (fold_run run) in
      List.length (List.sort_uniq compare (List.map E.key layer)) = List.length layer)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "layered_async_sm"
    [
      ( "phases",
        [
          Alcotest.test_case "initial" `Quick test_initial;
          Alcotest.test_case "action enumeration" `Quick test_action_enumeration;
          Alcotest.test_case "absent untouched" `Quick test_absent_process_untouched;
          Alcotest.test_case "(j,0) independent of j" `Quick test_jk_independence_of_j;
          Alcotest.test_case "read-late semantics" `Quick test_read_late_k_semantics;
          Alcotest.test_case "compile = apply" `Quick test_compile_matches_apply;
          Alcotest.test_case "bad actions rejected" `Quick test_bad_actions_rejected;
          Alcotest.test_case "contract guards" `Quick test_contract_guards;
          Alcotest.test_case "schedule legality" `Quick test_schedule_legality;
          Alcotest.test_case "srw work bound" `Quick test_srw_work_bound;
        ] );
      ("bridge", [ Alcotest.test_case "Lemma 5.3 bridge" `Quick test_bridge_everywhere ]);
      ( "properties",
        [
          qt prop_single_writer;
          qt prop_phase_counts;
          qt prop_validity_of_preferences;
          qt prop_srw_layer_deduped;
        ] );
    ]
