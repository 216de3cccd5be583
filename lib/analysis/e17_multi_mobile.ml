open Layered_core

let run_one ~n ~horizon ~length =
  let module P = (val Layered_protocols.Sync_floodset.make ~t:(horizon - 1)) in
  let module E = Layered_sync.Engine.Make (P) in
  let initials = E.initial_states ~n ~values:[ Value.zero; Value.one ] in
  let single = E.memo_layer (E.layer E.s1) in
  let keyset succ x = List.map E.key (succ x) |> List.sort_uniq compare in
  let first_violation_round succ classify x0 =
    let chain = Layering.bivalent_chain ~classify ~succ ~length x0 in
    ( chain.Layering.complete,
      List.find_map
        (fun x ->
          if Vset.cardinal (E.decided_vset x) >= 2 then Some x.E.round else None)
        chain.Layering.states )
  in
  List.concat_map
    (fun k ->
      let succ = E.memo_layer (E.layer (E.s_multi ~omitters:k)) in
      let valence = Valence.create (E.valence_spec ~succ) in
      let depth = horizon + 1 in
      let vals x = Valence.vals valence ~depth x in
      let classify x = Valence.classify valence ~depth x in
      let params = Printf.sprintf "n=%d horizon=%d omitters=%d" n horizon k in
      let inclusion_ok =
        List.for_all
          (fun x ->
            let multi = keyset succ x in
            List.for_all (fun key -> List.mem key multi) (keyset single x))
          initials
      in
      let layers_ok =
        List.for_all (fun x -> Connectivity.valence_connected ~vals (succ x)) initials
      in
      let chain_ok, violation =
        match Layering.find_bivalent ~classify initials with
        | None -> (false, None)
        | Some x0 -> first_violation_round succ classify x0
      in
      [
        Report.check ~id:"E17" ~claim:"submodel monotonicity" ~params
          ~expected:"1-omitter layer contained in k-omitter layer"
          ~measured:(Printf.sprintf "checked %d states" (List.length initials))
          inclusion_ok;
        Report.check ~id:"E17" ~claim:"layer valence" ~params
          ~expected:"k-omitter layers valence connected"
          ~measured:(Printf.sprintf "checked %d layers" (List.length initials))
          layers_ok;
        Report.check ~id:"E17" ~claim:"Cor 5.2 (a fortiori)" ~params
          ~expected:(Printf.sprintf "bivalent chain of length %d with forced violation" length)
          ~measured:
            (match violation with
            | Some r -> Printf.sprintf "chain complete, violation at round %d" r
            | None -> "no violation")
          (chain_ok && violation <> None);
      ])
    [ 1; 2 ]

let run () = run_one ~n:3 ~horizon:2 ~length:6
