open Layered_core

module Make (P : Protocol.S) = struct
  type state = { round : int; locals : P.local array; faulty : bool array }
  type action = {
    corrupt : Pid.t list;
    drops : (Pid.t * Pid.t list) list;
    rdrops : (Pid.t * Pid.t list) list;
  }

  let n_of x = Array.length x.locals

  let initial ~inputs =
    let n = Array.length inputs in
    {
      round = 0;
      locals = Array.init n (fun i -> P.init ~n ~pid:(i + 1) ~input:inputs.(i));
      faulty = Array.make n false;
    }

  let initial_states ~n ~values =
    List.map (fun inputs -> initial ~inputs) (Inputs.vectors ~n ~values)

  let apply x { corrupt; drops; rdrops } =
    let n = n_of x in
    let round = x.round + 1 in
    if List.length (List.sort_uniq compare corrupt) <> List.length corrupt then
      invalid_arg "Omission.apply: duplicate corruption";
    List.iter
      (fun j ->
        if j < 1 || j > n then invalid_arg "Omission.apply: bad pid";
        if x.faulty.(j - 1) then invalid_arg "Omission.apply: already faulty")
      corrupt;
    let faulty =
      Array.init n (fun idx -> x.faulty.(idx) || List.mem (idx + 1) corrupt)
    in
    List.iter
      (fun (s, _) ->
        if not faulty.(s - 1) then invalid_arg "Omission.apply: drop by non-faulty sender")
      drops;
    List.iter
      (fun (r, _) ->
        if not faulty.(r - 1) then
          invalid_arg "Omission.apply: receive drop by non-faulty receiver")
      rdrops;
    let dropped s d =
      (match List.assoc_opt s drops with Some ds -> List.mem d ds | None -> false)
      || match List.assoc_opt d rdrops with Some ss -> List.mem s ss | None -> false
    in
    let received_by j =
      Array.init n (fun idx ->
          let i = idx + 1 in
          if i = j || dropped i j then None
          else P.send ~n ~round ~pid:i x.locals.(idx) ~dest:j)
    in
    let locals =
      Array.init n (fun idx ->
          let j = idx + 1 in
          P.step ~n ~round ~pid:j x.locals.(idx) ~received:(received_by j))
    in
    { round; locals; faulty }

  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let s = subsets rest in
        s @ List.map (fun sub -> x :: sub) s

  let all_actions ?(general = false) ~max_new ~remaining_failures x =
    let n = n_of x in
    let candidates = List.filter (fun j -> not x.faulty.(j - 1)) (Pid.all n) in
    let budget = min max_new remaining_failures in
    let corruptions =
      List.filter (fun c -> List.length c <= budget) (subsets candidates)
    in
    (* Per faulty process, any subset of peers on the given side. *)
    let rec choices = function
      | [] -> [ [] ]
      | s :: rest ->
          let tails = choices rest in
          List.concat_map
            (fun ds ->
              List.map (fun tail -> if ds = [] then tail else (s, ds) :: tail) tails)
            (subsets (Pid.others n s))
    in
    List.concat_map
      (fun corrupt ->
        let faulty_now =
          List.filter (fun j -> x.faulty.(j - 1)) (Pid.all n) @ corrupt
        in
        let rdrop_choices = if general then choices faulty_now else [ [] ] in
        List.concat_map
          (fun drops -> List.map (fun rdrops -> { corrupt; drops; rdrops }) rdrop_choices)
          (choices faulty_now))
      corruptions

  let key x =
    let buf = Buffer.create 64 in
    Buffer.add_string buf (string_of_int x.round);
    Buffer.add_char buf '|';
    Array.iter (fun f -> Buffer.add_char buf (if f then '1' else '0')) x.faulty;
    Array.iter
      (fun l ->
        Buffer.add_char buf '|';
        Buffer.add_string buf (P.key l))
      x.locals;
    Buffer.contents buf

  let equal x y = String.equal (key x) (key y)
  let decisions x = Array.map P.decision x.locals

  let decided_vset x =
    let s = ref Vset.empty in
    Array.iteri
      (fun idx l ->
        if not x.faulty.(idx) then
          match P.decision l with Some v -> s := Vset.add v !s | None -> ())
      x.locals;
    !s

  let terminal x =
    let ok = ref true in
    Array.iteri
      (fun idx l -> if (not x.faulty.(idx)) && P.decision l = None then ok := false)
      x.locals;
    !ok

  let faulty_count x = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 x.faulty
  let nonfaulty x = List.filter (fun i -> not x.faulty.(i - 1)) (Pid.all (n_of x))

  let pp ppf x =
    Format.fprintf ppf "@[<v>round %d, faulty {%s}@," x.round
      (String.concat ","
         (List.filter_map
            (fun i -> if x.faulty.(i - 1) then Some (string_of_int i) else None)
            (Pid.all (n_of x))));
    Engine_core.pp_locals P.pp P.decision ppf x.locals;
    Format.fprintf ppf "@]"
end
