type 'a successor = 'a -> 'a list

let validate ~micro ~ident ?(bound = 8) ~states succ =
  let reachable_from x y =
    let iy = ident y in
    (Layered_runtime.Frontier.exists_reachable Layered_runtime.Pool.serial ~succ:micro
       ~ident ~depth:bound ~pred:(fun z -> ident z = iy) x)
      .Layered_runtime.Budget.value
  in
  List.concat_map
    (fun x ->
      List.filter_map
        (fun y -> if reachable_from x y then None else Some (x, y))
        (succ x))
    states

type 'a chain = { states : 'a list; complete : bool; stuck : 'a option }

let bivalent_chain ~classify ~succ ~length x0 =
  let is_bivalent x =
    match classify x with
    | Valence.Bivalent -> true
    | Valence.Univalent _ | Valence.Unknown -> false
  in
  if not (is_bivalent x0) then { states = []; complete = false; stuck = Some x0 }
  else begin
    let rec extend acc x remaining =
      if remaining = 0 then { states = List.rev acc; complete = true; stuck = None }
      else
        match List.find_opt is_bivalent (succ x) with
        | Some y -> extend (y :: acc) y (remaining - 1)
        | None -> { states = List.rev acc; complete = false; stuck = Some x }
    in
    extend [ x0 ] x0 (max 0 (length - 1))
  end

let find_bivalent ~classify states =
  List.find_opt
    (fun x ->
      match classify x with
      | Valence.Bivalent -> true
      | Valence.Univalent _ | Valence.Unknown -> false)
    states

type ('l, 'a) labelled_chain = {
  start : 'a;
  steps : ('l * 'a) list;
  complete_l : bool;
}

let bivalent_chain_labelled ~classify ~succ ~length x0 =
  let is_bivalent x =
    match classify x with
    | Valence.Bivalent -> true
    | Valence.Univalent _ | Valence.Unknown -> false
  in
  if not (is_bivalent x0) then { start = x0; steps = []; complete_l = false }
  else begin
    let rec extend acc x remaining =
      if remaining = 0 then { start = x0; steps = List.rev acc; complete_l = true }
      else
        match List.find_opt (fun (_, y) -> is_bivalent y) (succ x) with
        | Some ((_, y) as step) -> extend (step :: acc) y (remaining - 1)
        | None -> { start = x0; steps = List.rev acc; complete_l = false }
    in
    extend [] x0 (max 0 (length - 1))
  end
