type verdict = Univalent of Value.t | Bivalent | Unknown

let verdict_equal a b =
  match (a, b) with
  | Univalent v, Univalent w -> Value.equal v w
  | Bivalent, Bivalent | Unknown, Unknown -> true
  | (Univalent _ | Bivalent | Unknown), _ -> false

let pp_verdict ppf = function
  | Univalent v -> Format.fprintf ppf "%a-univalent" Value.pp v
  | Bivalent -> Format.pp_print_string ppf "bivalent"
  | Unknown -> Format.pp_print_string ppf "unknown"

type 'a spec = {
  succ : 'a -> 'a list;
  ident : 'a -> int;
  decided : 'a -> Vset.t;
  terminal : 'a -> bool;
}

type outcome = { vals : Vset.t; complete : bool }

(* The memo maps a state's identity to (depth explored, outcome at that
   depth).  A [complete] outcome is valid for every depth >= the cached
   one; an incomplete outcome is only reused for exactly the cached
   depth. *)
type 'a t = {
  spec : 'a spec;
  mutable budget : Layered_runtime.Budget.t option;
  memo : (int, int * outcome) Hashtbl.t;
}

let create ?budget spec = { spec; budget; memo = Hashtbl.create 4096 }

(* Swap the budget consulted by [compute].  Not synchronised: callers
   that share an engine across domains (the serve dispatcher) must hold
   their per-classifier lock around set/classify/reset.  Budget-cut
   outcomes are never cached, so a cancelled walk leaves the memo
   exactly as it found it. *)
let set_budget t budget = t.budget <- budget

let export t = Hashtbl.fold (fun id e acc -> (id, e) :: acc) t.memo []
let import t entries = List.iter (fun (id, e) -> Hashtbl.replace t.memo id e) entries

let rec compute t ~depth x =
  let spec = t.spec in
  if spec.terminal x then { vals = spec.decided x; complete = true }
  else if depth = 0 then { vals = spec.decided x; complete = false }
  else if Layered_runtime.Budget.exceeded_opt t.budget <> None then
    (* Budget exhausted: stop expanding futures.  The unexplored branch
       degrades the outcome to incomplete (so verdicts become [Unknown]
       rather than wrong), and nothing is cached — incompleteness here is
       the budget's fault, not the depth's. *)
    { vals = spec.decided x; complete = false }
  else begin
    let id = spec.ident x in
    match Hashtbl.find_opt t.memo id with
    | Some (d, res) when (res.complete && d <= depth) || d = depth ->
        Layered_runtime.Stats.record_valence_lookup ~hit:true;
        res
    | Some _ | None ->
        Layered_runtime.Stats.record_valence_lookup ~hit:false;
        Layered_runtime.Budget.charge_opt t.budget 1;
        let children = spec.succ x in
        let res =
          List.fold_left
            (fun acc y ->
              let o = compute t ~depth:(depth - 1) y in
              { vals = Vset.union acc.vals o.vals; complete = acc.complete && o.complete })
            { vals = spec.decided x; complete = true }
            children
        in
        let res = if children = [] then { res with complete = spec.terminal x } else res in
        (* A budget trip mid-fold prunes futures arbitrarily, so [res]
           reflects this walk's interruption point, not the state.  All
           budget trips are monotone (deadlines stay passed, counters
           only grow, cancellation is permanent), so checking here
           catches any trip during the fold above — only budget-clean
           results may enter the memo, or one walk's cancellation would
           leak Unknown verdicts into every later walk at this depth. *)
        if Layered_runtime.Budget.exceeded_opt t.budget = None then
          Hashtbl.replace t.memo id (depth, res);
        res
  end

let outcome t ~depth x =
  if depth < 0 then invalid_arg "Valence.outcome: negative depth";
  compute t ~depth x

(* chaos site: corrupt a classification so that the answer is a
   *different* verdict — the permutation-invariance oracle compares
   classifications computed by independent engines, so any flipped
   verdict is observable there. *)
let flip_verdict o = function
  | Univalent _ | Unknown -> Bivalent
  | Bivalent -> (
      match Vset.elements o.vals with
      | v :: _ -> Univalent v
      | [] -> Unknown)

let classify t ~depth x =
  let o = outcome t ~depth x in
  let verdict =
    match Vset.elements o.vals with
    | [] -> Unknown
    | [ v ] -> if o.complete then Univalent v else Unknown
    | _ :: _ :: _ -> Bivalent
  in
  if Layered_runtime.Fault.point Layered_runtime.Fault.Flip_valence_bit then
    flip_verdict o verdict
  else verdict

let is_bivalent t ~depth x =
  match classify t ~depth x with
  | Bivalent -> true
  | Univalent _ | Unknown -> false

let vals t ~depth x = (outcome t ~depth x).vals

let cache_entries t = Hashtbl.length t.memo
