(* Protocol-level tests: exhaustive model checking of the synchronous
   consensus protocols, and behavioural spot checks of all protocols. *)

open Layered_core
open Layered_analysis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Exhaustive verification against every crash adversary *)

let verify ?(uniform = false) ?decision_round name protocol ~n ~t () =
  let decision_round = Option.value decision_round ~default:(t + 1) in
  let r =
    Consensus_check.check ~protocol ~failures:Crash ~n ~t ~rounds:(decision_round + 1) ()
  in
  check (name ^ " agreement") true r.Consensus_check.agreement_ok;
  check (name ^ " validity") true r.Consensus_check.validity_ok;
  check (name ^ " termination") true r.Consensus_check.termination_ok;
  check_int (name ^ " worst round") decision_round r.Consensus_check.worst_decision_round;
  (* The classical contrast: the t+1-round protocols achieve plain but not
     uniform agreement (a mid-delivery crasher can decide on a value the
     survivors never see); the echo-round protocol buys uniformity. *)
  check (name ^ " uniformity") uniform r.Consensus_check.uniform_agreement_ok

(* ------------------------------------------------------------------ *)
(* FloodSet behaviour *)

module FS = (val Layered_protocols.Sync_floodset.make ~t:1)
module EFS = Layered_sync.Engine.Make (FS)

let test_floodset_decides_min () =
  List.iter
    (fun inputs ->
      let x = EFS.initial ~inputs:(Array.of_list inputs) in
      let ff = EFS.apply EFS.Crash x (EFS.omit []) in
      let y = EFS.apply EFS.Crash ff (EFS.omit []) in
      let expected = List.fold_left min (List.hd inputs) inputs in
      check "decides min of inputs" true
        (Vset.equal (EFS.decided_vset y) (Vset.singleton expected)))
    [ [ 0; 1; 1 ]; [ 1; 1; 1 ]; [ 1; 0; 1 ]; [ 0; 0; 0 ] ]

let test_floodset_decision_round () =
  let x = EFS.initial ~inputs:[| 0; 1; 1 |] in
  let r1 = EFS.apply EFS.Crash x (EFS.omit []) in
  check "no decision at round t" false (EFS.terminal r1);
  check "decision at round t+1" true (EFS.terminal (EFS.apply EFS.Crash r1 (EFS.omit [])))

let test_floodset_stable_after_decision () =
  let x = EFS.initial ~inputs:[| 0; 1; 1 |] in
  let rec advance x k =
    if k = 0 then x else advance (EFS.apply EFS.Crash x (EFS.omit [])) (k - 1)
  in
  let a = advance x 2 and b = advance x 3 in
  (* Only the round counter moves once everyone has decided. *)
  check "decisions stable" true
    (Array.for_all2 ( = ) (EFS.decisions a) (EFS.decisions b))

(* ------------------------------------------------------------------ *)
(* Early-deciding FloodSet: speed on clean runs *)

module ED = (val Layered_protocols.Sync_early.make ~t:2)
module EED = Layered_sync.Engine.Make (ED)

let test_early_fast_path () =
  (* Failure-free: decides in one round even though t = 2. *)
  let x = EED.initial ~inputs:[| 0; 1; 1; 1 |] in
  let y = EED.apply EED.Crash x (EED.omit []) in
  check "decided after one clean round" true (EED.terminal y);
  check "decides the minimum" true (Vset.equal (EED.decided_vset y) (Vset.singleton 0))

let test_early_delays_under_crash () =
  (* A visible crash in round 1 delays the observers. *)
  let x = EED.initial ~inputs:[| 0; 1; 1; 1 |] in
  let y = EED.apply EED.Crash x (EED.omit [ { EED.sender = 1; blocked = [ 2; 3; 4 ] } ]) in
  check "observers wait" false (EED.terminal y);
  (* Round 2 clean: 1 observed crash < 2, decide. *)
  check "decide next round" true (EED.terminal (EED.apply EED.Crash y (EED.omit [])))

(* ------------------------------------------------------------------ *)
(* EIG tree structure *)

module EIG = (val Layered_protocols.Sync_eig.make ~t:1)
module EEIG = Layered_sync.Engine.Make (EIG)

let test_eig_decides_like_floodset () =
  (* On every crash-adversary run, EIG and FloodSet reach the same
     decision vector (both decide min of surviving values). *)
  let inputs = [| 0; 1; 1 |] in
  let actions0 = [ []; [ { EEIG.sender = 1; blocked = [ 2; 3 ] } ] ] in
  List.iter
    (fun a0 ->
      let via_eig =
        let x = EEIG.initial ~inputs in
        let a0' = List.map (fun o -> { EEIG.sender = o.EEIG.sender; blocked = o.EEIG.blocked }) a0 in
        let y = EEIG.apply EEIG.Crash x (EEIG.omit a0') in
        EEIG.decided_vset (EEIG.apply EEIG.Crash y (EEIG.omit []))
      in
      let via_fs =
        let x = EFS.initial ~inputs in
        let a0' = List.map (fun o -> { EFS.sender = o.EEIG.sender; blocked = o.EEIG.blocked }) a0 in
        let y = EFS.apply EFS.Crash x (EFS.omit a0') in
        EFS.decided_vset (EFS.apply EFS.Crash y (EFS.omit []))
      in
      check "same decision set" true (Vset.equal via_eig via_fs))
    actions0

(* ------------------------------------------------------------------ *)
(* Asynchronous protocols: shape checks *)

module MPF = (val Layered_protocols.Mp_floodset.make ~horizon:2)
module EMP = Layered_async_mp.Engine.Make (MPF)

let test_mp_floodset_halts_after_decision () =
  let x = EMP.initial ~inputs:[| 0; 1; 1 |] in
  let full = List.map (fun i -> Layered_async_mp.Engine.Solo i) [ 1; 2; 3 ] in
  let y = EMP.apply (EMP.apply x full) full in
  check "terminal" true (EMP.terminal y);
  (* Decided processes send nothing: the state stabilises. *)
  let z = EMP.apply y full in
  check "no new messages" true (EMP.in_transit z = 0)

module SMV = (val Layered_protocols.Sm_voting.make ~horizon:2)
module ESM = Layered_async_sm.Engine.Make (SMV)

let test_sm_voting_unanimity () =
  let x = ESM.initial ~inputs:[| 1; 1; 1 |] in
  let clean = { Layered_async_sm.Engine.slow = 1; mode = Layered_async_sm.Engine.Read_late 0 } in
  let y = ESM.apply (ESM.apply x clean) clean in
  check "unanimous input decides that value" true
    (Vset.equal (ESM.decided_vset y) (Vset.singleton 1))

(* ------------------------------------------------------------------ *)
(* The omission-tolerant coordinator *)

module CO = (val Layered_protocols.Sync_coordinator.make ~t:1)
module ECO = Layered_sync.Engine.Make (CO)

let test_coordinator_clean_run () =
  let x = ECO.initial ~inputs:[| 0; 1; 1 |] in
  let rec advance x k =
    if k = 0 then x else advance (ECO.apply ECO.Omission x (ECO.omit [])) (k - 1)
  in
  let y = advance x 6 in
  check "decided after 3(t+1) rounds" true (ECO.terminal y);
  (* With votes (0,1,1) the n-t = 2 majority locks 1 in the first vote
     round: the coordinator decides by majority, not minimum. *)
  check "decides the majority value" true
    (Vset.equal (ECO.decided_vset y) (Vset.singleton 1));
  check "not earlier" false (ECO.terminal (advance x 5))

let test_coordinator_verified_omission () =
  let r =
    Consensus_check.check
      ~protocol:(Layered_protocols.Sync_coordinator.make ~t:1)
      ~failures:Omission ~n:3 ~t:1 ~rounds:7 ~max_new:1 ()
  in
  check "agreement" true r.Consensus_check.agreement_ok;
  check "validity" true r.Consensus_check.validity_ok;
  check "termination" true r.Consensus_check.termination_ok

let test_floodset_not_omission_tolerant () =
  let r =
    Consensus_check.check
      ~protocol:(Layered_protocols.Sync_floodset.make ~t:1)
      ~failures:Omission ~n:3 ~t:1 ~rounds:3 ~max_new:1 ()
  in
  check "agreement fails" false r.Consensus_check.agreement_ok

(* ------------------------------------------------------------------ *)
(* Full-information views *)

let test_view_growth () =
  let v = Layered_protocols.View.init ~pid:1 ~input:0 in
  check "initial undecided" true (Layered_protocols.View.decision v = None);
  let o2 = Layered_protocols.View.observe (Layered_protocols.View.init ~pid:2 ~input:1) in
  let v1 = Layered_protocols.View.advance ~horizon:2 v [ (2, o2) ] in
  check "still undecided before horizon" true (Layered_protocols.View.decision v1 = None);
  let v2 = Layered_protocols.View.advance ~horizon:2 v1 [ (2, o2) ] in
  check "decides min at horizon" true (Layered_protocols.View.decision v2 = Some 0);
  (* Write-once/stability. *)
  let v3 = Layered_protocols.View.advance ~horizon:2 v2 [] in
  check "stable after decision" true
    (String.equal (Layered_protocols.View.key v2) (Layered_protocols.View.key v3));
  (* Views distinguish observation histories. *)
  let w1 = Layered_protocols.View.advance ~horizon:2 v [] in
  check "histories distinguishable" false
    (String.equal (Layered_protocols.View.key v1) (Layered_protocols.View.key w1))

let test_full_info_sync_decides () =
  let module FI = (val Layered_protocols.Full_info.sync ~horizon:2) in
  let module E = Layered_sync.Engine.Make (FI) in
  let x = E.initial ~inputs:[| 0; 1; 1 |] in
  let y = E.apply E.Crash (E.apply E.Crash x (E.omit [])) (E.omit []) in
  check "full-info floods and decides min" true
    (Vset.equal (E.decided_vset y) (Vset.singleton 0))

(* ------------------------------------------------------------------ *)
(* The 2-set agreement protocol *)

module K = (val Layered_protocols.Mp_kset.make ~n:3)
module EK = Layered_async_mp.Engine.Make (K)

let test_kset_waits_for_quorum () =
  let x = EK.initial ~inputs:[| 0; 1; 2 |] in
  let solo p = List.map (fun i -> Layered_async_mp.Engine.Solo i) p in
  (* One full round: the last mover knows three inputs, the first only
     its own; deciders need n - 1 = 2. *)
  let y = EK.apply x (solo [ 1; 2; 3 ]) in
  let decs = EK.decisions y in
  check "first mover undecided" true (decs.(0) = None);
  check "second mover decided (knows 2)" true (decs.(1) <> None);
  check "third mover decided" true (decs.(2) <> None)

let test_kset_two_values_max () =
  (* Starve p1 (holder of the unique minimum): others decide the second
     minimum; p1, once scheduled, may decide the true minimum. *)
  let x = EK.initial ~inputs:[| 0; 1; 2 |] in
  let solo p = List.map (fun i -> Layered_async_mp.Engine.Solo i) p in
  let y = EK.apply (EK.apply x (solo [ 2; 3 ])) (solo [ 2; 3 ]) in
  check "others decide 1" true
    (Vset.equal (EK.decided_vset y) (Vset.singleton 1));
  let z = EK.apply y (solo [ 1; 2; 3 ]) in
  check "late mover decides 0: two values total" true
    (Vset.equal (EK.decided_vset z) (Vset.of_list [ 0; 1 ]))

let () =
  Alcotest.run "layered_protocols"
    [
      ( "verification",
        [
          Alcotest.test_case "floodset (3,1)" `Quick
            (verify "floodset" (Layered_protocols.Sync_floodset.make ~t:1) ~n:3 ~t:1);
          Alcotest.test_case "floodset (4,2)" `Slow
            (verify "floodset" (Layered_protocols.Sync_floodset.make ~t:2) ~n:4 ~t:2);
          Alcotest.test_case "eig (3,1)" `Quick
            (verify "eig" (Layered_protocols.Sync_eig.make ~t:1) ~n:3 ~t:1);
          Alcotest.test_case "early (3,1)" `Quick
            (verify "early" (Layered_protocols.Sync_early.make ~t:1) ~n:3 ~t:1);
          Alcotest.test_case "early (4,2)" `Slow
            (verify "early" (Layered_protocols.Sync_early.make ~t:2) ~n:4 ~t:2);
          Alcotest.test_case "clean (3,1)" `Quick
            (verify "clean" (Layered_protocols.Sync_clean.make ~t:1) ~n:3 ~t:1);
          Alcotest.test_case "clean (4,2)" `Slow
            (verify "clean" (Layered_protocols.Sync_clean.make ~t:2) ~n:4 ~t:2);
          Alcotest.test_case "uniform (3,1)" `Quick
            (verify ~uniform:true ~decision_round:3 "uniform"
               (Layered_protocols.Sync_uniform.make ~t:1) ~n:3 ~t:1);
          Alcotest.test_case "uniform (4,2)" `Slow
            (verify ~uniform:true ~decision_round:4 "uniform"
               (Layered_protocols.Sync_uniform.make ~t:2) ~n:4 ~t:2);
        ] );
      ( "floodset",
        [
          Alcotest.test_case "decides min" `Quick test_floodset_decides_min;
          Alcotest.test_case "decision round" `Quick test_floodset_decision_round;
          Alcotest.test_case "stable after decision" `Quick
            test_floodset_stable_after_decision;
        ] );
      ( "early",
        [
          Alcotest.test_case "fast path" `Quick test_early_fast_path;
          Alcotest.test_case "delayed by crash" `Quick test_early_delays_under_crash;
        ] );
      ("eig", [ Alcotest.test_case "matches floodset" `Quick test_eig_decides_like_floodset ]);
      ( "async",
        [
          Alcotest.test_case "mp halts after decision" `Quick
            test_mp_floodset_halts_after_decision;
          Alcotest.test_case "sm unanimity" `Quick test_sm_voting_unanimity;
        ] );
      ( "omission",
        [
          Alcotest.test_case "coordinator clean run" `Quick test_coordinator_clean_run;
          Alcotest.test_case "coordinator verified" `Quick test_coordinator_verified_omission;
          Alcotest.test_case "floodset breaks" `Quick test_floodset_not_omission_tolerant;
        ] );
      ( "full-info",
        [
          Alcotest.test_case "view growth" `Quick test_view_growth;
          Alcotest.test_case "sync decides" `Quick test_full_info_sync_decides;
        ] );
      ( "kset",
        [
          Alcotest.test_case "quorum wait" `Quick test_kset_waits_for_quorum;
          Alcotest.test_case "two values max" `Quick test_kset_two_values_max;
        ] );
    ]
