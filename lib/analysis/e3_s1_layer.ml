open Layered_core

let run_one ~n ~horizon =
  let module P = (val Layered_protocols.Sync_floodset.make ~t:(horizon - 1)) in
  let module E = Layered_sync.Engine.Make (P) in
  let succ = E.memo_layer (E.layer E.s1) in
  let valence = Valence.create (E.valence_spec ~succ) in
  let depth = horizon + 1 in
  let vals x = Valence.vals valence ~depth x in
  let classify x = Valence.classify valence ~depth x in
  (* The full micro-step relation of M^mf: one round under any action
     (j, G) with an arbitrary subset G — the single-crash actions, with
     nothing recorded. *)
  let micro =
    E.memo_layer (fun x ->
        List.map (E.apply E.Mobile x) (E.actions_at (E.crash ~max_new:1 ~t:1) x))
  in
  let initials = E.initial_states ~n ~values:[ Value.zero; Value.one ] in
  let sample =
    List.concat_map
      (fun x0 ->
        Layered_runtime.(
          (Frontier.reachable Pool.serial ~succ ~ident:E.ident ~depth:2 x0).Budget.value))
      initials
  in
  (* (i) layering validity *)
  let violations = Layering.validate ~micro ~ident:E.ident ~bound:1 ~states:sample succ in
  let layering_ok = violations = [] in
  (* (ii) Lemma 3.3 consequence: similarity within a layer implies shared
     valence *)
  let lemma33_ok =
    List.for_all
      (fun x ->
        let layer = succ x in
        List.for_all
          (fun y ->
            List.for_all
              (fun z -> (not (E.similar y z)) || Vset.intersects (vals y) (vals z))
              layer)
          layer)
      sample
  in
  (* (iii) every layer valence connected *)
  let connected_ok =
    List.for_all (fun x -> Connectivity.valence_connected ~vals (succ x)) sample
  in
  (* ... including along a bivalent chain driven beyond the decision
     horizon *)
  let chain_connected_ok, chain_len =
    match Layering.find_bivalent ~classify initials with
    | None -> (false, 0)
    | Some x0 ->
        let chain = Layering.bivalent_chain ~classify ~succ ~length:(horizon + 4) x0 in
        ( List.for_all (fun x -> Connectivity.valence_connected ~vals (succ x)) chain.states,
          List.length chain.states )
  in
  let params = Printf.sprintf "n=%d horizon=%d" n horizon in
  [
    Report.check ~id:"E3" ~claim:"Lemma 5.1(i)" ~params
      ~expected:"S1 successors legal in M^mf"
      ~measured:
        (Printf.sprintf "%d states, %d violations" (List.length sample)
           (List.length violations))
      layering_ok;
    Report.check ~id:"E3" ~claim:"Lemma 5.1(ii)+3.3" ~params
      ~expected:"similar layer states share a valence"
      ~measured:(Printf.sprintf "checked %d layers" (List.length sample))
      lemma33_ok;
    Report.check ~id:"E3" ~claim:"Lemma 5.1(iii)" ~params
      ~expected:"every S1(x) valence connected"
      ~measured:
        (Printf.sprintf "layers of %d reachable + %d chain states" (List.length sample)
           chain_len)
      (connected_ok && chain_connected_ok);
  ]

let run () = run_one ~n:3 ~horizon:2 @ run_one ~n:4 ~horizon:2
