(* The (t+1)-round lower bound, played out move by move (Section 6).

   Run with:  dune exec examples/lower_bound.exe

   The adversary spends one crash per round to keep the configuration
   bivalent through round t-1 (Lemma 6.1); one more round must pass before
   everyone can decide (Lemma 6.2); and FloodSet indeed always needs
   exactly t+1 rounds (tightness), while the early-deciding variant beats
   it on clean runs but not in the worst case. *)

open Layered_core

let demonstrate ~pname ~protocol ~n ~t =
  let module P = (val (protocol : (module Layered_sync.Protocol.S))) in
  let module E = Layered_sync.Engine.Make (P) in
  Format.printf "=== %s, n=%d t=%d ===@.@." pname n t;
  let adv = E.st ~t in
  let succ = E.layer adv in
  let valence = Valence.create (E.valence_spec ~succ) in
  let classify x = Valence.classify valence ~depth:(t + 2) x in
  let initials = E.initial_states ~n ~values:[ Value.zero; Value.one ] in
  let x0 = Option.get (Layering.find_bivalent ~classify initials) in
  let succ_labelled x =
    List.map (fun a -> (a, E.apply adv.discipline x a)) (E.actions_at adv x)
  in
  let chain = Layering.bivalent_chain_labelled ~classify ~succ:succ_labelled ~length:t x0 in
  Format.printf "Lemma 6.1 -- the adversary keeps the run bivalent:@.";
  Format.printf "  round 0: %-12s %a, %d failed@." "(start)" Valence.pp_verdict
    (classify x0) (E.failed_count x0);
  List.iter
    (fun (action, x) ->
      Format.printf "  round %d: %-12s %a, %d failed@." x.E.round
        (Format.asprintf "%a" E.pp_action action)
        Valence.pp_verdict (classify x) (E.failed_count x))
    chain.Layering.steps;
  let last =
    match List.rev chain.Layering.steps with (_, x) :: _ -> x | [] -> x0
  in
  let undecided y =
    let decs = E.decisions y in
    List.length (List.filter (fun i -> decs.(i - 1) = None) (E.nonfailed y))
  in
  let worst = List.fold_left (fun acc y -> max acc (undecided y)) 0 (succ last) in
  Format.printf
    "Lemma 6.2 -- a round-%d successor still has %d non-failed undecided processes,@."
    t worst;
  Format.printf "so some run cannot decide before round %d.@." (t + 1);
  let result =
    Layered_analysis.Consensus_check.check ~protocol
      ~failures:Layered_analysis.Consensus_check.Crash ~n ~t ~rounds:(t + 2) ()
  in
  Format.printf "Tightness -- exhaustive check over all crash adversaries: %a@.@."
    Layered_analysis.Consensus_check.pp_result result

let () =
  demonstrate ~pname:"FloodSet" ~protocol:(Layered_protocols.Sync_floodset.make ~t:2)
    ~n:4 ~t:2;
  demonstrate ~pname:"EIGStop" ~protocol:(Layered_protocols.Sync_eig.make ~t:1) ~n:3 ~t:1;
  demonstrate ~pname:"early-deciding FloodSet"
    ~protocol:(Layered_protocols.Sync_early.make ~t:2) ~n:4 ~t:2;
  (* The early decider's advantage: a failure-free run decides in ONE
     round, yet its worst case is still t+1 (Lemma 6.4 explains why the
     adversary must spend failures to delay it). *)
  let module P = (val Layered_protocols.Sync_early.make ~t:2) in
  let module E = Layered_sync.Engine.Make (P) in
  let x = E.initial ~inputs:[| 0; 1; 1; 1 |] in
  let y = E.apply E.Crash x (E.omit []) in
  Format.printf
    "Early decider on a clean run: everyone decided after round 1? %b (t+1 = 3)@."
    (E.terminal y)
