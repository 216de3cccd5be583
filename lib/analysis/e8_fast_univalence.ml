open Layered_core

let run_one ~pname ~protocol ~n ~t =
  let module P = (val (protocol : (module Layered_sync.Protocol.S))) in
  let module E = Layered_sync.Engine.Make (P) in
  let succ = E.memo_layer (E.layer (E.st ~t)) in
  let valence = Valence.create (E.valence_spec ~succ) in
  let depth = t + 2 in
  let classify x = Valence.classify valence ~depth x in
  let initials = E.initial_states ~n ~values:[ Value.zero; Value.one ] in
  let ok = ref true and checked = ref 0 in
  List.iter
    (fun x0 ->
      List.iter
        (fun x ->
          if x.E.round <= t then begin
            let y = E.apply E.Crash x (E.omit []) in
            incr checked;
            match classify y with
            | Valence.Univalent _ -> ()
            | Valence.Bivalent | Valence.Unknown -> ok := false
          end)
        Layered_runtime.(
          (Frontier.reachable Pool.serial ~succ ~ident:E.ident ~depth:t x0).Budget.value))
    initials;
  [
    Report.check ~id:"E8" ~claim:"Lemma 6.4"
      ~params:(Printf.sprintf "%s n=%d t=%d" pname n t)
      ~expected:"failure-free round after k failures gives a univalent state"
      ~measured:(Printf.sprintf "univalent for all %d states" !checked)
      !ok;
  ]

let run () =
  let floodset ~t = Layered_protocols.Sync_floodset.make ~t in
  let early ~t = Layered_protocols.Sync_early.make ~t in
  run_one ~pname:"floodset" ~protocol:(floodset ~t:1) ~n:3 ~t:1
  @ run_one ~pname:"floodset" ~protocol:(floodset ~t:2) ~n:4 ~t:2
  @ run_one ~pname:"early" ~protocol:(early ~t:1) ~n:3 ~t:1
  @ run_one ~pname:"early" ~protocol:(early ~t:2) ~n:4 ~t:2
