open Layered_core

let run_one ~n ~values ~depth =
  let module P = (val Layered_protocols.Mp_kset.make ~n) in
  let module E = Layered_async_mp.Engine.Make (P) in
  let bound_ok = ref true
  and validity_ok = ref true
  and liveness_ok = ref true
  and two_decisions_witnessed = ref false
  and states = ref 0 in
  let full = List.map (fun i -> Layered_async_mp.Engine.Solo i) (Pid.all n) in
  List.iter
    (fun inputs ->
      let allowed = Vset.of_list (Array.to_list inputs) in
      let x0 = E.initial ~inputs in
      (* Liveness on the fair schedule: two full layers decide everyone. *)
      let fair = E.apply (E.apply x0 full) full in
      if not (E.terminal fair) then liveness_ok := false;
      List.iter
        (fun x ->
          incr states;
          let decided = E.decided_vset x in
          if Vset.cardinal decided > 2 then bound_ok := false;
          if Vset.cardinal decided = 2 then two_decisions_witnessed := true;
          if not (Vset.subset decided allowed) then validity_ok := false)
        Layered_runtime.(
          (Frontier.reachable Pool.serial ~succ:E.sper ~ident:E.ident ~depth x0)
            .Budget.value))
    (Inputs.vectors ~n ~values);
  let params = Printf.sprintf "n=%d |V|=%d depth=%d" n (List.length values) depth in
  [
    Report.check ~id:"E11" ~claim:"Cor 7.3 (constructive)" ~params
      ~expected:"<=2 distinct decisions at every reachable state"
      ~measured:(Printf.sprintf "holds over %d states" !states)
      !bound_ok;
    Report.check ~id:"E11" ~claim:"validity" ~params ~expected:"decisions are inputs"
      ~measured:(Printf.sprintf "holds over %d states" !states)
      !validity_ok;
    Report.check ~id:"E11" ~claim:"liveness" ~params
      ~expected:"two full layers decide everyone"
      ~measured:"all fair runs terminal" !liveness_ok;
    Report.check ~id:"E11" ~claim:"k-set crossover (k=1 side)" ~params
      ~expected:"the same protocol does not solve consensus"
      ~measured:
        (if !two_decisions_witnessed then "a 2-decision run was found"
         else "no disagreement found")
      !two_decisions_witnessed;
  ]

let run () = run_one ~n:3 ~values:[ Value.zero; Value.one; Value.of_int 2 ] ~depth:3
