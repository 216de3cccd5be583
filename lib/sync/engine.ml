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

  let mask_of failed =
    let m = ref 0 in
    Array.iteri (fun i f -> if f then m := !m lor (1 lsl i)) failed;
    !m

  (* An action's row, validated against the failure set [failed] (a
     mask): each receiver's label, the mask of the senders whose message
     arrives, and the failure set after the round. *)
  let row discipline ~n ~failed { marks; drops } =
    let omission = match discipline with Omission -> true | Mobile | Crash -> false in
    let check_pid j = if j < 1 || j > n then invalid_arg "Engine.apply: bad pid" in
    let marked = ref 0 in
    List.iter
      (fun j ->
        check_pid j;
        let bit = 1 lsl (j - 1) in
        if !marked land bit <> 0 then invalid_arg "Engine.apply: duplicate omitters";
        if omission && failed land bit <> 0 then invalid_arg "Engine.apply: already faulty";
        marked := !marked lor bit)
      marks;
    let faulty = failed lor !marked in
    (* blocked.(s): bitmask of the receivers that miss sender [s + 1] *)
    let blocked = Array.make n 0 in
    List.iter
      (fun o ->
        check_pid o.sender;
        let s = o.sender - 1 in
        List.iter
          (fun d ->
            check_pid d;
            if omission && faulty land ((1 lsl s) lor (1 lsl (d - 1))) = 0 then
              invalid_arg "Engine.apply: drop between non-faulty processes";
            blocked.(s) <- blocked.(s) lor (1 lsl (d - 1)))
          o.blocked)
      drops;
    (* A crashed process is silent from the round after its mark; an
       omission-faulty one keeps sending. *)
    let silent = if omission then 0 else failed in
    ( Array.init n (fun r ->
          let mask = ref 0 in
          for i = 0 to n - 1 do
            if i <> r && silent land (1 lsl i) = 0 && blocked.(i) land (1 lsl r) = 0 then
              mask := !mask lor (1 lsl i)
          done;
          !mask),
      match (discipline, marks) with
      | Mobile, _ | (Crash | Omission), [] -> failed
      | (Crash | Omission), _ :: _ -> faulty )

  (* Process [r + 1]'s new local state at [x] when the messages of the
     senders in [mask] arrive.  Each [P.send] runs at most once, and
     each [P.step] once per (receiver, senders whose message arrives): a
     sender with no message for the receiver does not count. *)
  let local x =
    let n = n_of x and round = x.round + 1 in
    (* msgs.((i * n) + r): sender [i + 1]'s message to [r + 1], sent once
       [asked.(r)] holds [i]; [has.(r)]: the senders asked with one *)
    let msgs = Array.make (n * n) None and asked = Array.make n 0 and has = Array.make n 0 in
    let step =
      Engine_core.memo ~n (fun r mask ->
          let received = Array.make n None in
          for i = 0 to n - 1 do
            if mask land (1 lsl i) <> 0 then received.(i) <- msgs.((i * n) + r)
          done;
          P.step ~n ~round ~pid:(r + 1) x.locals.(r) ~received)
    in
    fun r mask ->
      for i = 0 to n - 1 do
        if mask land lnot asked.(r) land (1 lsl i) <> 0 then begin
          msgs.((i * n) + r) <- P.send ~n ~round ~pid:(i + 1) x.locals.(i) ~dest:(r + 1);
          asked.(r) <- asked.(r) lor (1 lsl i);
          if Option.is_some msgs.((i * n) + r) then has.(r) <- has.(r) lor (1 lsl i)
        end
      done;
      Engine_core.find step r (mask land has.(r))

  (* [was] is [x]'s failure set, which a successor keeping it shares. *)
  let build x was row failed =
    let n = n_of x in
    {
      round = x.round + 1;
      locals = row;
      failed =
        (if failed = was then x.failed else Array.init n (fun i -> failed land (1 lsl i) <> 0));
      interned = Intern.fresh_slot ();
    }

  let apply discipline x a =
    let n = n_of x in
    Engine_core.check_mask_width n;
    let was = mask_of x.failed in
    let labels, failed = row discipline ~n ~failed:was a in
    build x was (Array.mapi (local x) labels) failed

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

  let count failed = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 failed
  let alive ~n failed = List.filter (fun i -> not failed.(i - 1)) (Pid.all n)
  let failed_count x = count x.failed
  let nonfailed x = alive ~n:(n_of x) x.failed

  type adversary = {
    discipline : discipline;
    actions : n:int -> failed:bool array -> action list;
    rows : int -> int -> (int, int) Engine_core.rows;
  }

  (* [actions] compiled on first use once per (n, failure set): all they
     read. *)
  let adversary discipline actions =
    let rows =
      Engine_core.per_key (fun n ->
          Engine_core.check_mask_width n;
          Engine_core.per_key (fun failed ->
              Engine_core.rows ~n
                (List.map
                   (row discipline ~n ~failed)
                   (actions ~n ~failed:(Array.init n (fun i -> failed land (1 lsl i) <> 0))))))
    in
    { discipline; actions; rows }

  let actions_at adv x = adv.actions ~n:(n_of x) ~failed:x.failed

  let layer adv x =
    let was = mask_of x.failed in
    Engine_core.layer (adv.rows (n_of x) was) ~local:(local x) ~env:Fun.id ~build:(build x was)

  let layer_size adv x =
    Engine_core.layer_size (adv.rows (n_of x) (mask_of x.failed)) ~local:(local x) ~env:Fun.id

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
    adversary Mobile (fun ~n ~failed:_ ->
        List.concat_map
          (fun j -> List.map (fun k -> omit [ prefix n j k ]) (0 :: Pid.all n))
          (Pid.all n))

  (* While fewer than [t] processes are failed, a single fresh omission
     per layer — including the "declaration-only" crash (sender recorded
     failed, no message lost), which keeps the layer similarity connected
     in this model (see DESIGN.md); once [t] processes are failed, only
     the failure-free successor remains. *)
  let st ~t =
    adversary Crash (fun ~n ~failed ->
        if count failed >= t then [ clean ]
        else begin
          let per_sender j =
            if failed.(j - 1) then []
            else
              List.map (fun k -> omit [ prefix n j k ]) (0 :: Pid.all n)
              @ [ omit [ { sender = j; blocked = [] } ] ]
          in
          clean :: List.concat_map per_sender (Pid.all n)
        end)

  let s_multi ~omitters =
    adversary Mobile (fun ~n ~failed:_ ->
        List.map omit (choose (fun j -> List.map (prefix n j) (Pid.all n)) (Pid.all n) omitters))

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
    adversary Crash (fun ~n ~failed ->
        List.map omit
          (choose (drops_by ~empty:true n) (alive ~n failed) (min max_new (t - count failed))))

  let omission ~general ~max_new ~t =
    non_negative ~what:"omission" max_new;
    adversary Omission (fun ~n ~failed ->
        (* Receive omissions: faulty [r] misses each sender in a set. *)
        let misses r =
          List.map
            (fun o -> List.map (fun s -> { sender = s; blocked = [ r ] }) o.blocked)
            (drops_by ~empty:false n r)
        in
        List.concat_map
          (fun marks ->
            let faulty = List.filter (fun j -> failed.(j - 1)) (Pid.all n) @ marks in
            let receives =
              if general then List.map List.concat (choose misses faulty n) else [ [] ]
            in
            List.concat_map
              (fun sends -> List.map (fun recvs -> { marks; drops = sends @ recvs }) receives)
              (choose (drops_by ~empty:false n) faulty n))
          (choose (fun j -> [ j ]) (alive ~n failed) (min max_new (t - count failed))))

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
        if x.round < rounds then List.iter go (layer adv x)
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
