open Layered_core

let run () =
  let floodset =
    Consensus_check.check ~protocol:(Layered_protocols.Sync_floodset.make ~t:1)
      ~failures:Omission ~n:3 ~t:1 ~rounds:3 ~max_new:1 ()
  in
  let coordinator ~n ~t =
    Consensus_check.check
      ~protocol:(Layered_protocols.Sync_coordinator.make ~t)
      ~failures:Omission ~n ~t
      ~rounds:((3 * (t + 1)) + 1)
      ~max_new:1 ()
  in
  let c31 = coordinator ~n:3 ~t:1 in
  let c41 = coordinator ~n:4 ~t:1 in
  let general =
    Consensus_check.check
      ~protocol:(Layered_protocols.Sync_coordinator.make ~t:1)
      ~failures:General_omission ~n:3 ~t:1 ~rounds:7 ~max_new:1 ()
  in
  let boundary = coordinator ~n:4 ~t:2 in
  [
    Report.check ~id:"E18" ~claim:"min-flooding breaks" ~params:"floodset n=3 t=1"
      ~expected:"agreement fails under send-omission (last-round injection)"
      ~measured:(Format.asprintf "%a" Consensus_check.pp_result floodset)
      ((not floodset.agreement_ok) && floodset.validity_ok && floodset.termination_ok);
    Report.check ~id:"E18" ~claim:"coordinator verified" ~params:"coordinator n=3 t=1"
      ~expected:"agreement+validity+decision for n > 2t"
      ~measured:(Format.asprintf "%a" Consensus_check.pp_result c31)
      (c31.agreement_ok && c31.validity_ok && c31.termination_ok);
    Report.check ~id:"E18" ~claim:"decision round" ~params:"coordinator n=3 t=1"
      ~expected:"decides in exactly 3(t+1) = 6 rounds"
      ~measured:(Printf.sprintf "worst %d" c31.worst_decision_round)
      (c31.worst_decision_round = 6);
    Report.check ~id:"E18" ~claim:"coordinator verified" ~params:"coordinator n=4 t=1"
      ~expected:"agreement+validity+decision for n > 2t"
      ~measured:(Format.asprintf "%a" Consensus_check.pp_result c41)
      (c41.agreement_ok && c41.validity_ok && c41.termination_ok);
    Report.check ~id:"E18" ~claim:"general omission" ~params:"coordinator n=3 t=1"
      ~expected:"also correct when faulty processes drop received messages"
      ~measured:(Format.asprintf "%a" Consensus_check.pp_result general)
      (general.agreement_ok && general.validity_ok && general.termination_ok);
    Report.check ~id:"E18" ~claim:"n = 2t boundary" ~params:"coordinator n=4 t=2"
      ~expected:"the n > 2t requirement is tight: agreement fails"
      ~measured:(Format.asprintf "%a" Consensus_check.pp_result boundary)
      (not boundary.agreement_ok);
  ]
