open Layered_core
open Layered_topology

let zoo_row ~task ~solvable =
  let cond = Solvability.passes_necessary_condition task in
  let frag = Solvability.forced_fragmentation task in
  let ok = if solvable then cond.Solvability.ok else frag.Solvability.ok in
  Report.check ~id:"E9" ~claim:"Thm 7.2/Cor 7.3"
    ~params:(Printf.sprintf "%s n=%d" task.Task.name task.Task.n)
    ~expected:(if solvable then "passes 1-thick condition" else "forced fragmentation")
    ~measured:
      (Printf.sprintf "condition=%b fragmentation=%b" cond.Solvability.ok
         frag.Solvability.ok)
    ok

let kset_sweep ~n ~values =
  List.map
    (fun k ->
      let task = Task.k_set_agreement ~n ~k ~values in
      let cond = Solvability.passes_necessary_condition task in
      let frag = Solvability.forced_fragmentation task in
      let solvable_expected = k >= 2 in
      Report.check ~id:"E9" ~claim:"k-set crossover"
        ~params:(Printf.sprintf "n=%d k=%d |V|=%d" n k (List.length values))
        ~expected:(if solvable_expected then "solvable (k>=2)" else "unsolvable (k=1)")
        ~measured:
          (Printf.sprintf "condition=%b fragmentation=%b" cond.Solvability.ok
             frag.Solvability.ok)
        (if solvable_expected then cond.Solvability.ok && not frag.Solvability.ok
         else frag.Solvability.ok))
    [ 1; 2; 3 ]

(* Generalized valence (Section 7): with the covering (O0, O1) given by the
   all-zeros / all-ones output complexes, a run's decided output simplex
   lies in O_v exactly when every decided process chose v.  For the
   min-deciding flooding protocol, the all-decided unanimous runs reachable
   from an initial state decide precisely the minimum input, so the
   generalized valence of every initial state must be the singleton
   {min of inputs}, and must refine binary decision valence. *)
let covering_agreement ~n ~horizon =
  let module P = (val Layered_protocols.Mp_floodset.make ~horizon) in
  let module E = Layered_async_mp.Engine.Make (P) in
  let all = Pid.all n in
  let unanimous v = Simplex.of_assoc (List.map (fun p -> (p, v)) all) in
  let cover =
    Covering.of_complexes
      (Complex.of_simplexes [ unanimous Value.zero ])
      (Complex.of_simplexes [ unanimous Value.one ])
  in
  let output x =
    let decs = E.decisions x in
    Simplex.of_assoc
      (List.filter_map
         (fun i -> match decs.(i - 1) with Some v -> Some (i, v) | None -> None)
         all)
  in
  let spec = E.valence_spec ~succ:E.sper in
  let covering = Valence.create (Covering.valence_spec cover ~output spec) in
  let valence = Valence.create spec in
  let depth = horizon + 1 in
  let ok = ref true and checked = ref 0 in
  let rec vectors acc i =
    if i = n then [ List.rev acc ]
    else
      List.concat_map (fun v -> vectors (v :: acc) (i + 1)) [ Value.zero; Value.one ]
  in
  List.iter
    (fun inputs ->
      incr checked;
      let x0 = E.initial ~inputs:(Array.of_list inputs) in
      let generalized = Valence.vals covering ~depth x0 in
      let binary = Valence.vals valence ~depth x0 in
      let expected = Vset.singleton (List.fold_left min (List.hd inputs) inputs) in
      if not (Vset.equal generalized expected) then ok := false;
      if not (Vset.subset generalized binary) then ok := false)
    (vectors [] 0);
  [
    Report.check ~id:"E9" ~claim:"Sec 7 coverings"
      ~params:(Printf.sprintf "mp-floodset n=%d h=%d" n horizon)
      ~expected:"covering valence = {min input}, refines binary valence"
      ~measured:(Printf.sprintf "checked %d initial states" !checked)
      !ok;
  ]

let run () =
  let values3 = [ Value.zero; Value.one; Value.of_int 2 ] in
  [
    zoo_row ~task:(Task.consensus ~n:3 ~values:[ Value.zero; Value.one ]) ~solvable:false;
    zoo_row ~task:(Task.consensus ~n:4 ~values:[ Value.zero; Value.one ]) ~solvable:false;
    zoo_row ~task:(Task.consensus ~n:3 ~values:values3) ~solvable:false;
    zoo_row ~task:(Task.election ~n:3) ~solvable:false;
    zoo_row ~task:(Task.weak_consensus ~n:3) ~solvable:true;
    zoo_row ~task:(Task.identity ~n:3 ~values:[ Value.zero; Value.one ]) ~solvable:true;
    zoo_row ~task:(Task.fixed_value ~n:3) ~solvable:true;
  ]
  @ kset_sweep ~n:3 ~values:values3
  @ kset_sweep ~n:4 ~values:values3
  @ covering_agreement ~n:3 ~horizon:2
