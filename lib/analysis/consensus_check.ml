open Layered_core
module Budget = Layered_runtime.Budget

type failures = Crash | Omission | General_omission

type result = {
  failures : failures;
  agreement_ok : bool;
  uniform_agreement_ok : bool;
  validity_ok : bool;
  termination_ok : bool;
  worst_decision_round : int;
  states_explored : int;
  status : Budget.status;
}

let check ~protocol:(module P : Layered_sync.Protocol.S) ~failures ~n ~t ~rounds
    ?(max_new = 2) ?budget () =
  let module E = Layered_sync.Engine.Make (P) in
  let adversary =
    match failures with
    | Crash -> E.crash ~max_new ~t
    | Omission -> E.omission ~general:false ~max_new ~t
    | General_omission -> E.omission ~general:true ~max_new ~t
  in
  let agreement_ok = ref true
  and uniform_ok = ref true
  and validity_ok = ref true
  and termination_ok = ref true
  and worst = ref 0
  and explored = ref 0 in
  let check_state allowed x =
    incr explored;
    Layered_runtime.Stats.add_states_expanded 1;
    let decided = E.decided_vset x in
    if Vset.cardinal decided > 1 then agreement_ok := false;
    let all_decided =
      Array.fold_left
        (fun acc d -> match d with Some v -> Vset.add v acc | None -> acc)
        Vset.empty (E.decisions x)
    in
    if Vset.cardinal all_decided > 1 then uniform_ok := false;
    if not (Vset.subset decided allowed) then validity_ok := false;
    if not (E.terminal x) then begin
      if x.E.round >= rounds then termination_ok := false
      else worst := max !worst (x.E.round + 1)
    end
  in
  (* One walk per input vector: validity is judged against its inputs,
     and states are counted per vector. *)
  let status =
    List.fold_left
      (fun status inputs ->
        match status with
        | Budget.Truncated _ -> status
        | Budget.Complete ->
            let allowed = Vset.of_list (Array.to_list inputs) in
            E.walk ?budget adversary ~rounds ~visit:(check_state allowed)
              [ E.initial ~inputs ])
      Budget.Complete
      (Inputs.vectors ~n ~values:[ Value.zero; Value.one ])
  in
  {
    failures;
    agreement_ok = !agreement_ok;
    uniform_agreement_ok = !uniform_ok;
    validity_ok = !validity_ok;
    termination_ok = !termination_ok;
    worst_decision_round = (if !termination_ok then !worst else rounds + 1);
    states_explored = !explored;
    status;
  }

let pp_result ppf r =
  Format.fprintf ppf "agreement=%b" r.agreement_ok;
  (match r.failures with
  | Crash -> Format.fprintf ppf " uniform=%b" r.uniform_agreement_ok
  | Omission | General_omission -> ());
  Format.fprintf ppf " validity=%b termination=%b worst-round=%d states=%d" r.validity_ok
    r.termination_ok r.worst_decision_round r.states_explored;
  match r.status with
  | Budget.Complete -> ()
  | Budget.Truncated tr ->
      Format.fprintf ppf " TRUNCATED(%a)" Budget.pp_truncation tr
