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
  mutable complete : bool;  (** the last [walk]'s completeness *)
}

let create ?budget spec = { spec; budget; memo = Hashtbl.create 4096; complete = true }

(* Swap the budget consulted by [walk].  Not synchronised: callers
   that share an engine across domains (the serve dispatcher) must hold
   their per-classifier lock around set/classify/reset.  Budget-cut
   outcomes are never cached, so a cancelled walk leaves the memo
   exactly as it found it. *)
let set_budget t budget = t.budget <- budget

let export t = Hashtbl.fold (fun id e acc -> (id, e) :: acc) t.memo []
let import t entries = List.iter (fun (id, e) -> Hashtbl.replace t.memo id e) entries

(* What a memo probe finds for an identity it does not hold. *)
let no_entry = (-1, { vals = Vset.empty; complete = false })

(* [walk t depth x]: [x]'s values at [depth], its completeness left in
   [t.complete], so no outcome is allocated but the memo's. *)
let rec walk t depth x =
  let spec = t.spec in
  t.complete <- spec.terminal x;
  if t.complete || depth = 0 then spec.decided x
  else if Layered_runtime.Budget.exceeded_opt t.budget <> None then
    (* Budget exhausted: stop expanding futures.  The unexplored branch
       degrades the outcome to incomplete (so verdicts become [Unknown]
       rather than wrong), and nothing is cached — incompleteness here is
       the budget's fault, not the depth's. *)
    spec.decided x
  else begin
    let id = spec.ident x in
    match if Hashtbl.mem t.memo id then Hashtbl.find t.memo id else no_entry with
    | d, res when (res.complete && d <= depth) || d = depth ->
        Layered_runtime.Stats.record_valence_lookup ~hit:true;
        t.complete <- res.complete;
        res.vals
    | _ ->
        Layered_runtime.Stats.record_valence_lookup ~hit:false;
        Layered_runtime.Budget.charge_opt t.budget 1;
        let children = spec.succ x in
        let vals = fold t (depth - 1) (spec.decided x) (children <> []) children in
        (* A budget trip mid-fold prunes futures arbitrarily, so [vals]
           reflects this walk's interruption point, not the state.  All
           budget trips are monotone (deadlines stay passed, counters
           only grow, cancellation is permanent), so checking here
           catches any trip during the fold above — only budget-clean
           results may enter the memo, or one walk's cancellation would
           leak Unknown verdicts into every later walk at this depth. *)
        if Layered_runtime.Budget.exceeded_opt t.budget = None then
          Hashtbl.replace t.memo id (depth, { vals; complete = t.complete });
        vals
  end

(* [vals] with the children's; [t.complete] ends as [complete] and theirs *)
and fold t depth vals complete = function
  | [] ->
      t.complete <- complete;
      vals
  | y :: ys ->
      let v = walk t depth y in
      fold t depth (Vset.union vals v) (complete && t.complete) ys

let outcome t ~depth x =
  if depth < 0 then invalid_arg "Valence.outcome: negative depth";
  let vals = walk t depth x in
  { vals; complete = t.complete }

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
