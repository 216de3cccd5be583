open Layered_core
module Iis = Layered_iis

(* The iis row decides by round t + 1, so its t is [horizon - 1]. *)
let run_one ~n ~horizon ~length =
  let module E = (val (Models.get ~caller:"E13" "iis").Models.engine ~t:(horizon - 1)) in
  let succ = E.layer in
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
  let fubini_ok =
    List.length (Iis.Engine.partitions ~n) = Iis.Engine.fubini n
  in
  let similarity_ok =
    List.for_all (fun x -> Connectivity.connected_via ~graph:E.similarity_graph (succ x)) sample
  in
  let valence_ok =
    List.for_all (fun x -> Connectivity.valence_connected ~vals (succ x)) sample
  in
  let chain =
    match Layering.find_bivalent ~classify initials with
    | None -> Layering.{ states = []; complete = false; stuck = None }
    | Some x0 -> Layering.bivalent_chain ~classify ~succ ~length x0
  in
  [
    Report.check ~id:"E13" ~claim:"partition count" ~params
      ~expected:(Printf.sprintf "Fubini(%d) = %d ordered partitions" n (Iis.Engine.fubini n))
      ~measured:(Printf.sprintf "%d enumerated" (List.length (Iis.Engine.partitions ~n)))
      fubini_ok;
    Report.check ~id:"E13" ~claim:"layer similarity" ~params
      ~expected:"every IIS layer similarity connected"
      ~measured:(Printf.sprintf "checked %d layers" (List.length sample))
      similarity_ok;
    Report.check ~id:"E13" ~claim:"layer valence" ~params
      ~expected:"every IIS layer valence connected"
      ~measured:(Printf.sprintf "checked %d layers" (List.length sample))
      valence_ok;
    Report.check ~id:"E13" ~claim:"wait-free FLP" ~params
      ~expected:(Printf.sprintf "bivalent chain of length %d" length)
      ~measured:(Printf.sprintf "length %d" (List.length chain.Layering.states))
      chain.Layering.complete;
  ]

let run () = run_one ~n:2 ~horizon:2 ~length:6 @ run_one ~n:3 ~horizon:2 ~length:6
