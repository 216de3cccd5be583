open Layered_core
module Sm = Layered_async_sm

let run_one ~n ~horizon ~length =
  let module P = (val Layered_protocols.Sm_voting.make ~horizon) in
  let module E = Sm.Engine.Make (P) in
  let succ = E.memo_layer E.srw in
  let valence = Valence.create (E.valence_spec ~succ) in
  let depth = horizon + 1 in
  let vals x = Valence.vals valence ~depth x in
  let classify x = Valence.classify valence ~depth x in
  let initials = E.initial_states ~n ~values:[ Value.zero; Value.one ] in
  let sample =
    List.concat_map
      (fun x0 ->
        Layered_runtime.(
          (Frontier.reachable Pool.serial ~succ ~ident:E.ident ~depth:1 x0).Budget.value))
      initials
  in
  let params = Printf.sprintf "n=%d horizon=%d" n horizon in
  (* (a) legality of every compiled layer *)
  let schedules_ok =
    List.for_all
      (fun x ->
        List.for_all
          (fun a -> E.schedule_legal (E.compile x a))
          (E.actions ~n))
      sample
  in
  (* (b) the Lemma 5.3 bridge *)
  let bridge_ok =
    List.for_all
      (fun x ->
        List.for_all
          (fun j ->
            let y =
              E.apply
                (E.apply x { Sm.Engine.slow = j; mode = Sm.Engine.Read_late n })
                { Sm.Engine.slow = j; mode = Sm.Engine.Absent }
            in
            let y' =
              E.apply
                (E.apply x { Sm.Engine.slow = j; mode = Sm.Engine.Absent })
                { Sm.Engine.slow = j; mode = Sm.Engine.Read_late 0 }
            in
            E.agree_modulo y y' j)
          (Pid.all n))
      sample
  in
  (* proper part of each layer is similarity connected *)
  let proper_connected_ok =
    List.for_all
      (fun x ->
        let y_part =
          List.concat_map
            (fun j ->
              List.map
                (fun k -> E.apply x { Sm.Engine.slow = j; mode = Sm.Engine.Read_late k })
                (0 :: Pid.all n))
            (Pid.all n)
        in
        Connectivity.connected_via ~graph:E.similarity_graph y_part)
      sample
  in
  (* (c) valence connectivity of layers + the ever-bivalent chain *)
  let layers_ok =
    List.for_all (fun x -> Connectivity.valence_connected ~vals (succ x)) sample
  in
  let chain =
    match Layering.find_bivalent ~classify initials with
    | None -> Layering.{ states = []; complete = false; stuck = None }
    | Some x0 -> Layering.bivalent_chain ~classify ~succ ~length x0
  in
  [
    Report.check ~id:"E5" ~claim:"S^rw legality" ~params
      ~expected:"every layer a legal phase interleaving"
      ~measured:(Printf.sprintf "checked %d states x %d actions" (List.length sample)
           (List.length (E.actions ~n)))
      schedules_ok;
    Report.check ~id:"E5" ~claim:"Lemma 5.3 bridge" ~params
      ~expected:"x(j,n)(j,A) = x(j,A)(j,0) modulo j"
      ~measured:(Printf.sprintf "checked %d states x %d slow choices" (List.length sample) n)
      bridge_ok;
    Report.check ~id:"E5" ~claim:"Lemma 5.3 (Y part)" ~params
      ~expected:"proper layer part similarity connected"
      ~measured:(Printf.sprintf "checked %d layers" (List.length sample))
      proper_connected_ok;
    Report.check ~id:"E5" ~claim:"Lemma 5.3 (iii)" ~params
      ~expected:"every S^rw(x) valence connected"
      ~measured:(Printf.sprintf "checked %d layers" (List.length sample))
      layers_ok;
    Report.check ~id:"E5" ~claim:"Cor 5.4" ~params
      ~expected:(Printf.sprintf "bivalent chain of length %d" length)
      ~measured:(Printf.sprintf "length %d" (List.length chain.Layering.states))
      chain.Layering.complete;
  ]

let run () = run_one ~n:3 ~horizon:2 ~length:7
