open Layered_core

(* Worst-case decision round over runs whose first round crashes exactly
   the processes [1 .. c], silently, and whose continuation is an
   arbitrary crash adversary within the remaining budget. *)
let worst_decision_with_waste ~protocol ~n ~t ~c =
  let module P = (val (protocol : (module Layered_sync.Protocol.S))) in
  let module E = Layered_sync.Engine.Make (P) in
  let rounds = t + 2 in
  let worst = ref 0 and ok = ref true in
  let first_action =
    E.omit
      (List.map
         (fun j -> { E.sender = j; blocked = Pid.others n j })
         (List.init c (fun i -> i + 1)))
  in
  let visit x =
    if not (E.terminal x) then begin
      if x.E.round >= rounds then ok := false
      else worst := max !worst (x.E.round + 1)
    end
  in
  List.iter
    (fun inputs ->
      let x0 = E.initial ~inputs in
      (* The undecided initial state itself shows decision takes >= 1
         round. *)
      if not (E.terminal x0) then worst := max !worst 1;
      ignore
        (E.walk (E.crash ~max_new:2 ~t) ~rounds ~visit
           [ E.apply E.Crash x0 first_action ]))
    (Inputs.vectors ~n ~values:[ Value.zero; Value.one ]);
  if !ok then !worst else rounds + 1

let run_one ~n ~t =
  let protocol = Layered_protocols.Sync_clean.make ~t in
  let verified =
    Consensus_check.check ~protocol ~failures:Crash ~n ~t ~rounds:(t + 2) ()
  in
  let params = Printf.sprintf "clean-floodset n=%d t=%d" n t in
  let verify_row =
    Report.check ~id:"E16" ~claim:"protocol verified" ~params
      ~expected:"agreement+validity+decision vs all crash adversaries"
      ~measured:(Format.asprintf "%a" Consensus_check.pp_result verified)
      (verified.agreement_ok && verified.validity_ok && verified.termination_ok)
  in
  (* Expected worst decision round when c crashes are spent silently in
     round 1 (Dwork-Moses: k + w detected by round k => decide by
     t + 1 - w; an idle adversary concedes a clean first round). *)
  let expected_worst c = if c = 0 then 1 else if c = t then 2 else t + 1 in
  let waste_rows =
    List.map
      (fun c ->
        let measured = worst_decision_with_waste ~protocol ~n ~t ~c in
        Report.check ~id:"E16" ~claim:"wasted faults" ~params
          ~expected:
            (Printf.sprintf "%d silent round-1 crashes: decide by round %d" c
               (expected_worst c))
          ~measured:(Printf.sprintf "worst decision round %d" measured)
          (measured = expected_worst c))
      (List.init (t + 1) Fun.id)
  in
  verify_row :: waste_rows

let run () = run_one ~n:3 ~t:1 @ run_one ~n:4 ~t:2
