open Layered_core

(* Lemma 3.1 over a verified-agreement synchronous protocol: every
   reachable bivalent state of the S^t submodel has at least [n - t]
   non-failed undecided processes. *)
let check_sync ~protocol ~n ~t =
  let module P = (val (protocol : (module Layered_sync.Protocol.S))) in
  let module E = Layered_sync.Engine.Make (P) in
  let succ = E.memo_layer (E.layer (E.st ~t)) in
  let valence = Valence.create (E.valence_spec ~succ) in
  let depth = t + 3 in
  let ok = ref true and bivalent_states = ref 0 in
  List.iter
    (fun x0 ->
      List.iter
        (fun x ->
          match Valence.classify valence ~depth x with
          | Valence.Bivalent ->
              incr bivalent_states;
              let decs = E.decisions x in
              let undecided =
                List.length (List.filter (fun i -> decs.(i - 1) = None) (E.nonfailed x))
              in
              if undecided < n - t then ok := false
          | Valence.Univalent _ | Valence.Unknown -> ())
        Layered_runtime.(
          (Frontier.reachable Pool.serial ~succ ~ident:E.ident ~depth:(t + 1) x0)
            .Budget.value))
    (E.initial_states ~n ~values:[ Value.zero; Value.one ]);
  (!ok, !bivalent_states)

(* Lemma 3.2's shadow in the asynchronous model: the model displays no
   finite failure, so under Agreement a bivalent state has no decided
   process.  Our deciding protocols necessarily break Agreement; we verify
   that every bivalent state that does have a decided process certifiably
   leads to an Agreement violation (both values decided). *)
let check_async ~horizon ~n =
  let module P = (val Layered_protocols.Mp_floodset.make ~horizon) in
  let module E = Layered_async_mp.Engine.Make (P) in
  let succ = E.memo_layer E.sper in
  let valence = Valence.create (E.valence_spec ~succ) in
  let depth = horizon + 1 in
  let ok = ref true and witnesses = ref 0 in
  List.iter
    (fun x0 ->
      List.iter
        (fun x ->
          match Valence.classify valence ~depth x with
          | Valence.Bivalent when not (Vset.is_empty (E.decided_vset x)) ->
              incr witnesses;
              let violates y = Vset.cardinal (E.decided_vset y) >= 2 in
              if
                not
                  Layered_runtime.(
                    (Frontier.exists_reachable Pool.serial ~succ ~ident:E.ident ~depth
                       ~pred:violates x)
                      .Budget.value)
              then ok := false
          | Valence.Bivalent | Valence.Univalent _ | Valence.Unknown -> ())
        Layered_runtime.(
          (Frontier.reachable Pool.serial ~succ ~ident:E.ident ~depth:2 x0).Budget.value))
    (E.initial_states ~n ~values:[ Value.zero; Value.one ]);
  (!ok, !witnesses)

let run () =
  let sync_rows =
    List.concat_map
      (fun (pname, make) ->
        List.map
          (fun (n, t) ->
            let ok, bivalent = check_sync ~protocol:(make ~t) ~n ~t in
            Report.check ~id:"E1" ~claim:"Lemma 3.1"
              ~params:(Printf.sprintf "%s n=%d t=%d" pname n t)
              ~expected:(Printf.sprintf ">=%d non-failed undecided at bivalent states" (n - t))
              ~measured:(Printf.sprintf "holds at all %d bivalent states" bivalent)
              ok)
          [ (3, 1); (4, 2) ])
      [
        ("floodset", fun ~t -> Layered_protocols.Sync_floodset.make ~t);
        ("early", fun ~t -> Layered_protocols.Sync_early.make ~t);
      ]
  in
  let ok, witnesses = check_async ~horizon:2 ~n:3 in
  let async_row =
    Report.check ~id:"E1" ~claim:"Lemma 3.2"
      ~params:"mp-floodset n=3 h=2"
      ~expected:"bivalent+decided implies future agreement violation"
      ~measured:(Printf.sprintf "verified for %d witness states" witnesses)
      ok
  in
  sync_rows @ [ async_row ]
