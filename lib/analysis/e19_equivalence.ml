open Layered_core

type outcome = {
  states : int;
  bound_ok : bool;
  validity_ok : bool;
  liveness_ok : bool;
  two_witnessed : bool;
}

(* Shared measurement: explore the layered submodel from every initial
   assignment, checking the 2-set bound and validity; run the fair
   schedule for liveness. *)
let measure (type a) ~(initials : (Vset.t * a) list) ~(succ : a -> a list)
    ~(ident : a -> int) ~(decided : a -> Vset.t) ~(fair : a -> a)
    ~(terminal : a -> bool) ~depth =
  let states = ref 0
  and bound_ok = ref true
  and validity_ok = ref true
  and liveness_ok = ref true
  and two_witnessed = ref false in
  List.iter
    (fun (allowed, x0) ->
      if not (terminal (fair (fair x0))) then liveness_ok := false;
      List.iter
        (fun x ->
          incr states;
          let d = decided x in
          if Vset.cardinal d > 2 then bound_ok := false;
          if Vset.cardinal d = 2 then two_witnessed := true;
          if not (Vset.subset d allowed) then validity_ok := false)
        Layered_runtime.(
          (Frontier.reachable Pool.serial ~succ ~ident ~depth x0).Budget.value))
    initials;
  {
    states = !states;
    bound_ok = !bound_ok;
    validity_ok = !validity_ok;
    liveness_ok = !liveness_ok;
    two_witnessed = !two_witnessed;
  }

let values = [ Value.zero; Value.one; Value.of_int 2 ]

let mp ~n ~depth =
  let module P = (val Layered_protocols.Mp_kset.make ~n) in
  let module E = Layered_async_mp.Engine.Make (P) in
  let full = List.map (fun i -> Layered_async_mp.Engine.Solo i) (Pid.all n) in
  measure
    ~initials:
      (List.map
         (fun inputs -> (Vset.of_list (Array.to_list inputs), E.initial ~inputs))
         (Inputs.vectors ~n ~values))
    ~succ:E.sper ~ident:E.ident ~decided:E.decided_vset
    ~fair:(fun x -> E.apply x full)
    ~terminal:E.terminal ~depth

let sm ~n ~depth =
  let module P = (val Layered_protocols.Sm_kset.make ()) in
  let module E = Layered_async_sm.Engine.Make (P) in
  let clean = { Layered_async_sm.Engine.slow = 1; mode = Layered_async_sm.Engine.Read_late 0 } in
  measure
    ~initials:
      (List.map
         (fun inputs -> (Vset.of_list (Array.to_list inputs), E.initial ~inputs))
         (Inputs.vectors ~n ~values))
    ~succ:E.srw ~ident:E.ident ~decided:E.decided_vset
    ~fair:(fun x -> E.apply x clean)
    ~terminal:E.terminal ~depth

let iis ~n ~depth =
  let module P = (val Layered_protocols.Iis_kset.make ()) in
  let module E = Layered_iis.Engine.Make (P) in
  measure
    ~initials:
      (List.map
         (fun inputs -> (Vset.of_list (Array.to_list inputs), E.initial ~inputs))
         (Inputs.vectors ~n ~values))
    ~succ:E.layer ~ident:E.ident ~decided:E.decided_vset
    ~fair:(fun x -> E.apply x [ Pid.all n ])
    ~terminal:E.terminal ~depth

let rows_of ~substrate ~n ~depth o =
  let params = Printf.sprintf "%s n=%d |V|=3 depth=%d" substrate n depth in
  [
    Report.check ~id:"E19" ~claim:"Cor 7.3 equivalence" ~params
      ~expected:"<=2 distinct decisions at every reachable state"
      ~measured:(Printf.sprintf "holds over %d states" o.states)
      (o.bound_ok && o.validity_ok);
    Report.check ~id:"E19" ~claim:"liveness + crossover" ~params
      ~expected:"fair schedules decide; some schedule splits into 2 values"
      ~measured:
        (Printf.sprintf "liveness=%b two-decision-run=%b" o.liveness_ok o.two_witnessed)
      (o.liveness_ok && o.two_witnessed);
  ]

let run () =
  rows_of ~substrate:"message-passing" ~n:3 ~depth:3 (mp ~n:3 ~depth:3)
  @ rows_of ~substrate:"shared-memory" ~n:3 ~depth:3 (sm ~n:3 ~depth:3)
  @ rows_of ~substrate:"iis" ~n:3 ~depth:3 (iis ~n:3 ~depth:3)
