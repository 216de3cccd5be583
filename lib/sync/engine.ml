open Layered_core

module type S = Engine_intf.S

module Make (P : Protocol.S) = struct
  type local = P.local

  type state = {
    round : int;
    locals : local array;
    failed : bool array;
    interned : Intern.slot;
  }

  type omission = { sender : Pid.t; blocked : Pid.t list }
  type action = omission list

  let n_of x = Array.length x.locals

  let initial ~inputs =
    let n = Array.length inputs in
    {
      round = 0;
      locals = Array.init n (fun i -> P.init ~n ~pid:(i + 1) ~input:inputs.(i));
      failed = Array.make n false;
      interned = Intern.fresh_slot ();
    }

  let initial_states ~n ~values =
    List.map (fun inputs -> initial ~inputs) (Inputs.vectors ~n ~values)

  let normalise_omission n { sender; blocked } =
    if sender < 1 || sender > n then invalid_arg "Engine: bad sender";
    { sender; blocked = List.sort_uniq compare (List.filter (fun d -> d <> sender) blocked) }

  let apply ~record_failures x action =
    let n = n_of x in
    let action = List.map (normalise_omission n) action in
    let senders = List.map (fun o -> o.sender) action in
    if List.length (List.sort_uniq compare senders) <> List.length senders then
      invalid_arg "Engine.apply: duplicate omitters";
    let round = x.round + 1 in
    (* blocked.(i - 1).(j - 1): is i -> j dropped this round?  Built once
       per action (non-omitting senders share one all-false row), so the
       per-(i, j) receive test below is an array probe instead of a
       List.mem over the omission's destination list. *)
    let no_block = Array.make n false in
    let blocked = Array.make n no_block in
    let omits = Array.make n false in
    List.iter
      (fun o ->
        let row = Array.make n false in
        List.iter (fun d -> row.(d - 1) <- true) o.blocked;
        blocked.(o.sender - 1) <- row;
        omits.(o.sender - 1) <- true)
      action;
    (* outbox.(i - 1): messages process i sends this round, or None if
       silenced. *)
    let outbox =
      Array.init n (fun idx ->
          let i = idx + 1 in
          if x.failed.(idx) then None
          else Some (fun dest -> P.send ~n ~round ~pid:i x.locals.(idx) ~dest))
    in
    let received_by j =
      Array.init n (fun idx ->
          let i = idx + 1 in
          if i = j then None
          else
            match outbox.(idx) with
            | None -> None
            | Some send -> if blocked.(idx).(j - 1) then None else send j)
    in
    let locals =
      Array.init n (fun idx ->
          let j = idx + 1 in
          P.step ~n ~round ~pid:j x.locals.(idx) ~received:(received_by j))
    in
    let failed =
      if record_failures then Array.init n (fun idx -> x.failed.(idx) || omits.(idx))
      else Array.copy x.failed
    in
    { round; locals; failed; interned = Intern.fresh_slot () }

  let apply_jk ~record_failures x j k =
    let blocked = List.filter (fun d -> d <= k) (Pid.all (n_of x)) in
    apply ~record_failures x [ { sender = j; blocked } ]

  let raw_key x =
    let buf = Buffer.create 64 in
    Buffer.add_string buf (string_of_int x.round);
    Buffer.add_char buf '|';
    Array.iter (fun f -> Buffer.add_char buf (if f then '1' else '0')) x.failed;
    Array.iter
      (fun l ->
        Buffer.add_char buf '|';
        Buffer.add_string buf (P.key l))
      x.locals;
    Buffer.contents buf

  (* Component signature for interning: header = round, part i = process
     i's failure bit + local key — exactly the data [agree_modulo]
     compares outside the masked position (the bit prefix has fixed
     width, so the encoding stays injective).  Symmetry: sound whenever
     the protocol's local keys are process-id-free, since permuting the
     part array is then the renaming action. *)
  let raw_parts x =
    let n = n_of x in
    Array.init (n + 1) (fun i ->
        if i = 0 then string_of_int x.round
        else (if x.failed.(i - 1) then "1" else "0") ^ P.key x.locals.(i - 1))

  module Core = Engine_core.Make (struct
    type nonrec state = state
    type nonrec local = local

    let slot x = x.interned

    type view = int * bool array * local array

    let view x = (x.round, x.failed, x.locals)
    let key = raw_key
    let parts = raw_parts
    let locals x = x.locals
    let decision = P.decision
    let failed = Some (fun x -> x.failed)
  end)

  include (Core : Engine_core.S with type state := state)

  let failed_count x = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 x.failed

  let nonfailed x =
    List.filter (fun i -> not (x.failed.(i - 1))) (Pid.all (n_of x))

  let jk_action n j k = [ { sender = j; blocked = List.filter (fun d -> d <= k) (Pid.all n) } ]

  let s1_actions x =
    let n = n_of x in
    List.concat_map
      (fun j -> List.map (fun k -> jk_action n j k) (0 :: Pid.all n))
      (Pid.all n)

  let s1 ~record_failures x =
    dedup (List.map (apply ~record_failures x) (s1_actions x))

  (* S^t: while fewer than [t] processes are failed, allow a single fresh
     omission per layer — including the "declaration-only" crash (sender
     recorded failed, no message lost), which keeps the layer similarity
     connected in this model (see DESIGN.md); once [t] processes are
     failed, only the failure-free successor remains. *)
  let st_actions ~t x =
    if failed_count x >= t then [ [] ]
    else begin
      let n = n_of x in
      let per_sender j =
        if x.failed.(j - 1) then []
        else
          List.map (fun k -> jk_action n j k) (0 :: Pid.all n)
          @ [ [ { sender = j; blocked = [] } ] ]
      in
      [] :: List.concat_map per_sender (Pid.all n)
    end

  let st ~t x = dedup (List.map (apply ~record_failures:true x) (st_actions ~t x))

  let s_multi_actions ~omitters x =
    let n = n_of x in
    (* Choose up to [omitters] distinct senders in increasing order, each
       with a prefix block. *)
    let rec choose senders count =
      let none = [ [] ] in
      if count = 0 then none
      else
        match senders with
        | [] -> none
        | j :: rest ->
            let without = choose rest count in
            let with_j =
              List.concat_map
                (fun k ->
                  List.map
                    (fun tail -> List.concat (jk_action n j k :: [ tail ]))
                    (choose rest (count - 1)))
                (Pid.all n)
            in
            without @ with_j
    in
    choose (Pid.all n) omitters

  let s_multi ~omitters x =
    dedup (List.map (apply ~record_failures:false x) (s_multi_actions ~omitters x))

  let pp_action ppf = function
    | [] -> Format.pp_print_string ppf "(clean)"
    | omissions ->
        let render { sender; blocked } =
          match blocked with
          | [] -> Printf.sprintf "(%d,declare)" sender
          | _ :: _ ->
              Printf.sprintf "(%d,{%s})" sender
                (String.concat "," (List.map string_of_int blocked))
        in
        Format.pp_print_string ppf (String.concat "+" (List.map render omissions))

  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let s = subsets rest in
        s @ List.map (fun sub -> x :: sub) s

  let all_actions ~max_new ~remaining_failures x =
    let n = n_of x in
    let candidates = List.filter (fun j -> not x.failed.(j - 1)) (Pid.all n) in
    let budget = min max_new remaining_failures in
    (* Choose up to [budget] distinct fresh omitters (in increasing order to
       avoid duplicates), each with an arbitrary blocked subset. *)
    let rec choose senders count =
      let none = [ [] ] in
      if count = 0 then none
      else
        match senders with
        | [] -> none
        | j :: rest ->
            let without = choose rest count in
            let with_j =
              List.concat_map
                (fun blocked ->
                  List.map
                    (fun tail -> { sender = j; blocked } :: tail)
                    (choose rest (count - 1)))
                (subsets (Pid.others n j))
            in
            without @ with_j
    in
    choose candidates budget

  let explore_spec ~record_failures =
    { Explore.succ = s1 ~record_failures; key }

  let pp ppf x =
    Format.fprintf ppf "@[<v>round %d, failed {%s}@," x.round
      (String.concat ","
         (List.filter_map
            (fun i -> if x.failed.(i - 1) then Some (string_of_int i) else None)
            (Pid.all (n_of x))));
    Engine_core.pp_locals P.pp P.decision ppf x.locals;
    Format.fprintf ppf "@]"
end
