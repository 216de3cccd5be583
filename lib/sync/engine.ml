open Layered_core
module Budget = Layered_runtime.Budget

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
  type action = { marks : Pid.t list; drops : omission list }
  type discipline = Mobile | Crash | Omission

  let omit drops = { marks = List.map (fun o -> o.sender) drops; drops }
  let clean = omit []
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

  (* One round from [x] under any action.  What does not depend on the
     action is done once: each [P.send] on first use, and each [P.step]
     once per (receiver, bitmask of the senders whose message arrives) —
     the received vector is a function of that mask and the sends.  The
     marks and drops are still validated per action. *)
  let successor discipline x =
    let n = n_of x in
    Engine_core.check_mask_width n;
    let omission = match discipline with Omission -> true | Mobile | Crash -> false in
    let round = x.round + 1 in
    let send =
      Engine_core.memo (n * n) (fun c ->
          P.send ~n ~round ~pid:((c / n) + 1) x.locals.(c / n) ~dest:((c mod n) + 1))
    in
    let step =
      Engine_core.memo_masks n (fun r mask ->
          let received =
            Array.init n (fun i ->
                if mask land (1 lsl i) <> 0 then send ((i * n) + r) else None)
          in
          P.step ~n ~round ~pid:(r + 1) x.locals.(r) ~received)
    in
    (* A crashed process is silent from the round after its mark; an
       omission-faulty one keeps sending. *)
    let silenced i = (not omission) && x.failed.(i) in
    let check_pid j = if j < 1 || j > n then invalid_arg "Engine.apply: bad pid" in
    fun { marks; drops } ->
      let marked = Array.make n false in
      List.iter
        (fun j ->
          check_pid j;
          if marked.(j - 1) then invalid_arg "Engine.apply: duplicate omitters";
          if omission && x.failed.(j - 1) then invalid_arg "Engine.apply: already faulty";
          marked.(j - 1) <- true)
        marks;
      let faulty idx = x.failed.(idx) || marked.(idx) in
      (* blocked.(s): bitmask of the receivers that miss sender [s + 1] *)
      let blocked = Array.make n 0 in
      List.iter
        (fun o ->
          check_pid o.sender;
          let s = o.sender - 1 in
          List.iter
            (fun d ->
              check_pid d;
              if omission && not (faulty s || faulty (d - 1)) then
                invalid_arg "Engine.apply: drop between non-faulty processes";
              blocked.(s) <- blocked.(s) lor (1 lsl (d - 1)))
            o.blocked)
        drops;
      let locals =
        Array.init n (fun r ->
            let mask = ref 0 in
            for i = 0 to n - 1 do
              if i <> r && (not (silenced i)) && blocked.(i) land (1 lsl r) = 0 then
                mask := !mask lor (1 lsl i)
            done;
            step r !mask)
      in
      let failed =
        match (discipline, marks) with
        | Mobile, _ | (Crash | Omission), [] -> x.failed
        | (Crash | Omission), _ :: _ -> Array.init n faulty
      in
      { round; locals; failed; interned = Intern.fresh_slot () }

  let apply discipline x a = successor discipline x a

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

  type adversary = { discipline : discipline; actions : state -> action list }

  let layer adv x = dedup_map (successor adv.discipline x) (adv.actions x)

  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let s = subsets rest in
        s @ List.map (fun sub -> x :: sub) s

  (* Up to [count] distinct members of [pids], in increasing order, each
     with one of its [options]; the empty choice first. *)
  let rec choose options pids count =
    match pids with
    | j :: rest when count > 0 ->
        let tails = choose options rest (count - 1) in
        choose options rest count
        @ List.concat_map (fun o -> List.map (fun tail -> o :: tail) tails) (options j)
    | _ -> [ [] ]

  let prefix n j k = { sender = j; blocked = List.filter (fun d -> d <= k) (Pid.all n) }

  let s1 =
    {
      discipline = Mobile;
      actions =
        (fun x ->
          let n = n_of x in
          List.concat_map
            (fun j -> List.map (fun k -> omit [ prefix n j k ]) (0 :: Pid.all n))
            (Pid.all n));
    }

  (* While fewer than [t] processes are failed, a single fresh omission
     per layer — including the "declaration-only" crash (sender recorded
     failed, no message lost), which keeps the layer similarity connected
     in this model (see DESIGN.md); once [t] processes are failed, only
     the failure-free successor remains. *)
  let st ~t =
    {
      discipline = Crash;
      actions =
        (fun x ->
          if failed_count x >= t then [ clean ]
          else begin
            let n = n_of x in
            let per_sender j =
              if x.failed.(j - 1) then []
              else
                List.map (fun k -> omit [ prefix n j k ]) (0 :: Pid.all n)
                @ [ omit [ { sender = j; blocked = [] } ] ]
            in
            clean :: List.concat_map per_sender (Pid.all n)
          end);
    }

  let s_multi ~omitters =
    {
      discipline = Mobile;
      actions =
        (fun x ->
          let n = n_of x in
          List.map omit
            (choose (fun j -> List.map (prefix n j) (Pid.all n)) (Pid.all n) omitters));
    }

  let non_negative ~what max_new =
    if max_new < 0 then invalid_arg (Printf.sprintf "Engine.%s: negative max_new" what)

  (* Every [{ sender = s; blocked }] with [blocked] a non-empty set of
     [s]'s peers, or with [empty] also the empty one. *)
  let drops_by ~empty n s =
    List.filter_map
      (fun blocked ->
        if empty || blocked <> [] then Some { sender = s; blocked } else None)
      (subsets (Pid.others n s))

  let crash ~max_new ~t =
    non_negative ~what:"crash" max_new;
    {
      discipline = Crash;
      actions =
        (fun x ->
          List.map omit
            (choose (drops_by ~empty:true (n_of x)) (nonfailed x)
               (min max_new (t - failed_count x))));
    }

  let omission ~general ~max_new ~t =
    non_negative ~what:"omission" max_new;
    {
      discipline = Omission;
      actions =
        (fun x ->
          let n = n_of x in
          (* Receive omissions: faulty [r] misses each sender in a set. *)
          let misses r =
            List.map
              (fun o -> List.map (fun s -> { sender = s; blocked = [ r ] }) o.blocked)
              (drops_by ~empty:false n r)
          in
          List.concat_map
            (fun marks ->
              let faulty = List.filter (fun j -> x.failed.(j - 1)) (Pid.all n) @ marks in
              let receives =
                if general then List.map List.concat (choose misses faulty n) else [ [] ]
              in
              List.concat_map
                (fun sends ->
                  List.map (fun recvs -> { marks; drops = sends @ recvs }) receives)
                (choose (drops_by ~empty:false n) faulty n))
            (choose (fun j -> [ j ]) (nonfailed x) (min max_new (t - failed_count x))));
    }

  exception Cut of Budget.status

  let walk ?budget adv ~rounds ~visit roots =
    let seen = Hashtbl.create 4096 in
    let rec go x =
      let id = ident x in
      if not (Hashtbl.mem seen id) then begin
        (match budget with
        | None -> ()
        | Some b -> (
            match Budget.exceeded b with
            | Some reason ->
                raise_notrace (Cut (Budget.truncated b ~reason ~at_depth:x.round))
            | None -> Budget.charge b 1));
        Hashtbl.add seen id ();
        visit x;
        if x.round < rounds then begin
          let next = successor adv.discipline x in
          List.iter (fun a -> go (next a)) (adv.actions x)
        end
      end
    in
    match List.iter go roots with () -> Budget.Complete | exception Cut status -> status

  let pp_action ppf { marks = _; drops } =
    let render { sender; blocked } =
      match blocked with
      | [] -> Printf.sprintf "(%d,declare)" sender
      | _ :: _ ->
          Printf.sprintf "(%d,{%s})" sender
            (String.concat "," (List.map string_of_int blocked))
    in
    match drops with
    | [] -> Format.pp_print_string ppf "(clean)"
    | _ :: _ -> Format.pp_print_string ppf (String.concat "+" (List.map render drops))

  let pp ppf x =
    Format.fprintf ppf "@[<v>round %d, failed {%s}@," x.round
      (String.concat ","
         (List.filter_map
            (fun i -> if x.failed.(i - 1) then Some (string_of_int i) else None)
            (Pid.all (n_of x))));
    Engine_core.pp_locals P.pp P.decision ppf x.locals;
    Format.fprintf ppf "@]"
end
