open Layered_core

let run_one ?(check_clean = true) ~pname ~protocol ~n ~horizon ~length () =
  let module P = (val (protocol : (module Layered_sync.Protocol.S))) in
  let module E = Layered_sync.Engine.Make (P) in
  let succ = E.layer E.s1 in
  let valence = Valence.create (E.valence_spec ~succ) in
  let depth = horizon + 1 in
  let classify x = Valence.classify valence ~depth x in
  let initials = E.initial_states ~n ~values:[ Value.zero; Value.one ] in
  let params = Printf.sprintf "%s n=%d horizon=%d L=%d" pname n horizon length in
  match Layering.find_bivalent ~classify initials with
  | None ->
      [
        Report.check ~id:"E4" ~claim:"Cor 5.2" ~params
          ~expected:"bivalent initial state" ~measured:"none found" false;
      ]
  | Some x0 ->
      let chain = Layering.bivalent_chain ~classify ~succ ~length x0 in
      let first_violation =
        List.find_map
          (fun x ->
            if Vset.cardinal (E.decided_vset x) >= 2 then Some x.E.round else None)
          chain.states
      in
      let pre_violation_clean =
        List.for_all
          (fun x ->
            (match first_violation with Some r -> x.E.round >= r | None -> false)
            || Vset.is_empty (E.decided_vset x))
          chain.states
      in
      [
        Report.check ~id:"E4" ~claim:"Cor 5.2" ~params
          ~expected:(Printf.sprintf "bivalent chain of length %d" length)
          ~measured:
            (Printf.sprintf "length %d%s" (List.length chain.states)
               (if chain.complete then "" else " (stuck)"))
          chain.complete;
        Report.check ~id:"E4" ~claim:"Cor 5.2 (agreement)" ~params
          ~expected:
            (Printf.sprintf "agreement violated once decisions are forced (round >= %d)"
               horizon)
          ~measured:
            (match first_violation with
            | Some r -> Printf.sprintf "first violation at round %d" r
            | None -> "no violation (chain too short?)")
          (match first_violation with Some r -> r >= horizon | None -> false);
      ]
      @
      if check_clean then
        [
          Report.check ~id:"E4" ~claim:"Lemma 3.2" ~params
            ~expected:"no decided process at bivalent states before the violation"
            ~measured:(Printf.sprintf "checked %d chain states" (List.length chain.states))
            pre_violation_clean;
        ]
      else []

let run () =
  run_one ~pname:"floodset"
    ~protocol:(Layered_protocols.Sync_floodset.make ~t:1)
    ~n:3 ~horizon:2 ~length:8 ()
  @ run_one ~pname:"floodset"
      ~protocol:(Layered_protocols.Sync_floodset.make ~t:2)
      ~n:3 ~horizon:3 ~length:8 ()
  (* The early-deciding protocol legitimately has pre-deadline deciders at
     bivalent states (it has already given up Agreement there), so the
     Lemma 3.2 shadow check applies only to FloodSet. *)
  @ run_one ~check_clean:false ~pname:"early"
      ~protocol:(Layered_protocols.Sync_early.make ~t:1)
      ~n:4 ~horizon:2 ~length:6 ()
