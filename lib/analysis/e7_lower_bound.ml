open Layered_core

(* [decision_round] is the protocol's worst-case decision round: t+1 for
   plain consensus, t+2 for the uniform protocol (one echo round more).
   [uniform] switches the expectation on the uniform-agreement flag. *)
let run_one ?(decision_round = 0) ?(uniform = false) ~pname ~protocol ~n ~t ~max_new () =
  let decision_round = if decision_round = 0 then t + 1 else decision_round in
  let params = Printf.sprintf "%s n=%d t=%d" pname n t in
  let verified =
    Consensus_check.check ~protocol ~failures:Crash ~n ~t ~rounds:(decision_round + 1)
      ~max_new ()
  in
  let module P = (val (protocol : (module Layered_sync.Protocol.S))) in
  let module E = Layered_sync.Engine.Make (P) in
  let succ = E.layer (E.st ~t) in
  let valence = Valence.create (E.valence_spec ~succ) in
  let depth = decision_round + 1 in
  let classify x = Valence.classify valence ~depth x in
  let initials = E.initial_states ~n ~values:[ Value.zero; Value.one ] in
  (* Lemma 6.1: a bivalent chain x^0 ... x^{t-1} (bivalence is guaranteed
     only through the end of round t-1; the paper notes there need not be
     a bivalent state at the end of round t). *)
  let chain =
    match Layering.find_bivalent ~classify initials with
    | None -> Layering.{ states = []; complete = false; stuck = None }
    | Some x0 -> Layering.bivalent_chain ~classify ~succ ~length:t x0
  in
  let failures_bounded =
    List.for_all (fun x -> E.failed_count x <= x.E.round) chain.Layering.states
  in
  (* Lemma 6.2: from the bivalent state at the end of round t-1, some
     layer successor (a round-t state) still has a non-failed undecided
     process — so some run decides only in round t+1 or later. *)
  let undecided_at_t =
    match List.rev chain.Layering.states with
    | last :: _ when chain.Layering.complete && last.E.round = t - 1 ->
        let undecided y =
          let decs = E.decisions y in
          List.length (List.filter (fun i -> decs.(i - 1) = None) (E.nonfailed y))
        in
        List.fold_left (fun acc y -> max acc (undecided y)) 0 (succ last)
    | _ -> -1
  in
  [
    Report.check ~id:"E7" ~claim:"protocol verified" ~params
      ~expected:"agreement+validity+decision vs all crash adversaries"
      ~measured:(Format.asprintf "%a" Consensus_check.pp_result verified)
      (verified.agreement_ok && verified.validity_ok && verified.termination_ok);
    Report.check ~id:"E7" ~claim:"Lemma 6.1" ~params
      ~expected:(Printf.sprintf "bivalent chain through round %d, <=m failed at x^m" (t - 1))
      ~measured:
        (Printf.sprintf "chain length %d%s" (List.length chain.Layering.states)
           (if failures_bounded then "" else ", failure bound violated"))
      (chain.Layering.complete && failures_bounded);
    Report.check ~id:"E7" ~claim:"Lemma 6.2 / Cor 6.3" ~params
      ~expected:
        (Printf.sprintf "a round-%d successor with a non-failed undecided process" t)
      ~measured:
        (if undecided_at_t < 0 then "no bivalent round-(t-1) state"
         else Printf.sprintf "up to %d undecided" undecided_at_t)
      (undecided_at_t >= 1);
    Report.check ~id:"E7" ~claim:"Cor 6.3 (tight)" ~params
      ~expected:(Printf.sprintf "worst-case decision round = %d" decision_round)
      ~measured:(Printf.sprintf "measured %d" verified.worst_decision_round)
      (verified.worst_decision_round = decision_round);
    Report.check ~id:"E7" ~claim:"uniform agreement" ~params
      ~expected:
        (if uniform then "uniform (echo round pays for it)"
         else "non-uniform (classical for t+1-round protocols)")
      ~measured:(Printf.sprintf "uniform=%b" verified.uniform_agreement_ok)
      (Bool.equal verified.uniform_agreement_ok uniform);
  ]

let run () =
  let floodset ~t = Layered_protocols.Sync_floodset.make ~t in
  let eig ~t = Layered_protocols.Sync_eig.make ~t in
  let early ~t = Layered_protocols.Sync_early.make ~t in
  let clean ~t = Layered_protocols.Sync_clean.make ~t in
  let uniform ~t = Layered_protocols.Sync_uniform.make ~t in
  run_one ~pname:"floodset" ~protocol:(floodset ~t:1) ~n:3 ~t:1 ~max_new:2 ()
  @ run_one ~pname:"floodset" ~protocol:(floodset ~t:1) ~n:4 ~t:1 ~max_new:2 ()
  @ run_one ~pname:"floodset" ~protocol:(floodset ~t:2) ~n:4 ~t:2 ~max_new:2 ()
  @ run_one ~pname:"floodset" ~protocol:(floodset ~t:2) ~n:5 ~t:2 ~max_new:2 ()
  @ run_one ~pname:"eig" ~protocol:(eig ~t:1) ~n:3 ~t:1 ~max_new:2 ()
  @ run_one ~pname:"early" ~protocol:(early ~t:1) ~n:3 ~t:1 ~max_new:2 ()
  @ run_one ~pname:"early" ~protocol:(early ~t:2) ~n:4 ~t:2 ~max_new:2 ()
  @ run_one ~pname:"clean" ~protocol:(clean ~t:1) ~n:3 ~t:1 ~max_new:2 ()
  @ run_one ~pname:"clean" ~protocol:(clean ~t:2) ~n:4 ~t:2 ~max_new:2 ()
  @ run_one ~pname:"uniform" ~protocol:(uniform ~t:1) ~n:3 ~t:1 ~max_new:2
      ~decision_round:3 ~uniform:true ()
  @ run_one ~pname:"uniform" ~protocol:(uniform ~t:2) ~n:4 ~t:2 ~max_new:2
      ~decision_round:4 ~uniform:true ()
