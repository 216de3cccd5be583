open Layered_core

type slowness = Absent | Read_late of int
type action = { slow : Pid.t; mode : slowness }
type event = Write of Pid.t | Scan of Pid.t

module Make (P : Protocol.S) = struct
  type state = {
    phase : int;
    locals : P.local array;
    regs : P.reg option array;
    interned : Intern.slot;
  }

  let n_of x = Array.length x.locals

  let initial ~inputs =
    let n = Array.length inputs in
    {
      phase = 0;
      locals = Array.init n (fun i -> P.init ~n ~pid:(i + 1) ~input:inputs.(i));
      regs = Array.make n None;
      interned = Intern.fresh_slot ();
    }

  let initial_states ~n ~values =
    List.map (fun inputs -> initial ~inputs) (Inputs.vectors ~n ~values)

  let actions ~n =
    List.concat_map
      (fun j ->
        { slow = j; mode = Absent }
        :: List.map (fun k -> { slow = j; mode = Read_late k }) (0 :: Pid.all n))
      (Pid.all n)

  let compile x { slow = j; mode } =
    let proper = Pid.others (n_of x) j in
    match mode with
    | Absent -> List.map (fun i -> Write i) proper @ List.map (fun i -> Scan i) proper
    | Read_late k ->
        let early, late = List.partition (fun i -> i <= k) proper in
        List.map (fun i -> Write i) proper
        @ List.map (fun i -> Scan i) early
        @ [ Write j; Scan j ]
        @ List.map (fun i -> Scan i) late

  let apply_event x = function
    | Write i ->
        let regs = Array.copy x.regs in
        (match P.write ~n:(n_of x) ~pid:i x.locals.(i - 1) with
        | Some r -> regs.(i - 1) <- Some r
        | None -> ());
        { x with regs; interned = Intern.fresh_slot () }
    | Scan i ->
        let locals = Array.copy x.locals in
        let before = P.decision locals.(i - 1) in
        locals.(i - 1) <- P.step ~n:(n_of x) ~pid:i locals.(i - 1) ~reads:(Array.copy x.regs);
        (match (before, P.decision locals.(i - 1)) with
        | Some v, Some w when not (Value.equal v w) ->
            invalid_arg "Engine: protocol violated write-once decision"
        | Some _, None -> invalid_arg "Engine: protocol erased a decision"
        | (Some _ | None), _ -> ());
        { x with locals; interned = Intern.fresh_slot () }

  let apply_events x events =
    let x' = List.fold_left apply_event x events in
    { x' with phase = x.phase + 1; interned = Intern.fresh_slot () }

  (* An action's row, validated: each process's label, the register
     vector it scans ([j]: every write but the slow [j + 1]'s; [n]: every
     write) or [n + 1] when it takes no step, and the vector the phase
     leaves. *)
  let row n { slow = j; mode } =
    if j < 1 || j > n then invalid_arg "Engine.apply: bad slow process";
    let j = j - 1 in
    (* proper processes [i < early] scan before [j]'s write *)
    let absent, early =
      match mode with
      | Absent -> (true, n)
      | Read_late k ->
          if k < 0 || k > n then invalid_arg "Engine.apply: bad read-late count";
          (false, k)
    in
    ( Array.init n (fun i ->
          if i = j then if absent then n + 1 else n else if i < early then j else n),
      if absent then j else n )

  (* The phase's shared work at [x]: each [P.write] runs at most once,
     each register vector is built once (a process that writes nothing
     leaves the vector every write leaves), and each [P.step] runs once
     per (process, vector).  Returns the local state a label gives and
     the vector an environment label leaves. *)
  let work x =
    let n = n_of x in
    let write = Engine_core.memo n (fun i -> P.write ~n ~pid:(i + 1) x.locals.(i)) in
    let vector v = if v < n && Option.is_none (write v) then n else v in
    let regs =
      Engine_core.memo (n + 1) (fun v ->
          let regs = Array.copy x.regs in
          for i = 0 to n - 1 do
            if i <> v then match write i with Some r -> regs.(i) <- Some r | None -> ()
          done;
          regs)
    in
    let scans =
      Engine_core.memo ((n + 1) * n) (fun c ->
          let v = c / n and i = c mod n in
          let l = P.step ~n ~pid:(i + 1) x.locals.(i) ~reads:(Array.copy (regs v)) in
          (match (P.decision x.locals.(i), P.decision l) with
          | Some a, Some b when not (Value.equal a b) ->
              invalid_arg "Engine: protocol violated write-once decision"
          | Some _, None -> invalid_arg "Engine: protocol erased a decision"
          | (Some _ | None), _ -> ());
          l)
    in
    ( (fun i v -> if v > n then x.locals.(i) else scans ((vector v * n) + i)),
      fun v -> regs (vector v) )

  let build x get regs =
    { phase = x.phase + 1; locals = Array.init (n_of x) get; regs; interned = Intern.fresh_slot () }

  let apply x a =
    let labels, v = row (n_of x) a and local, regs = work x in
    build x (fun i -> local i labels.(i)) (regs v)

  let schedule_legal events =
    let wrote = Hashtbl.create 8 and scanned = Hashtbl.create 8 in
    List.for_all
      (fun ev ->
        match ev with
        | Write i ->
            if Hashtbl.mem wrote i || Hashtbl.mem scanned i then false
            else begin
              Hashtbl.add wrote i ();
              true
            end
        | Scan i ->
            if Hashtbl.mem scanned i then false
            else begin
              Hashtbl.add scanned i ();
              true
            end)
      events

  let raw_key x =
    let buf = Buffer.create 64 in
    Buffer.add_string buf (string_of_int x.phase);
    Array.iter
      (fun r ->
        Buffer.add_char buf '|';
        match r with
        | Some r -> Buffer.add_string buf (P.reg_key r)
        | None -> Buffer.add_char buf '_')
      x.regs;
    Array.iter
      (fun l ->
        Buffer.add_char buf '!';
        Buffer.add_string buf (P.key l))
      x.locals;
    Buffer.contents buf

  (* Interning signature: [agree_modulo] compares phase + the whole
     register vector unmasked, so they form the header part; part i is
     process i's local key.  Register renders are length-prefixed so a
     reg_key containing the separators cannot alias. *)
  let raw_parts x =
    let n = n_of x in
    Array.init (n + 1) (fun i ->
        if i = 0 then begin
          let buf = Buffer.create 32 in
          Buffer.add_string buf (string_of_int x.phase);
          Array.iter
            (fun r ->
              match r with
              | Some r ->
                  let rk = P.reg_key r in
                  Buffer.add_char buf '|';
                  Buffer.add_string buf (string_of_int (String.length rk));
                  Buffer.add_char buf ':';
                  Buffer.add_string buf rk
              | None -> Buffer.add_string buf "|_")
            x.regs;
          Buffer.contents buf
        end
        else P.key x.locals.(i - 1))

  module Core = Engine_core.Make (struct
    type nonrec state = state
    type local = P.local

    let slot x = x.interned

    type view = int * P.reg option array * P.local array

    let view x = (x.phase, x.regs, x.locals)
    let key = raw_key
    let parts = raw_parts
    let locals x = x.locals
    let decision = P.decision

    (* No finite failure in this model. *)
    let failed = None
  end)

  include (Core : Engine_core.S with type state := state)

  let rows = Engine_core.per_key (fun n -> Engine_core.rows ~n (List.map (row n) (actions ~n)))

  let srw x =
    let local, regs = work x in
    Engine_core.layer (rows (n_of x)) ~local ~env:regs ~build:(build x)

  let srw_size x =
    let local, regs = work x in
    Engine_core.layer_size (rows (n_of x)) ~local ~env:regs

  let pp ppf x =
    Format.fprintf ppf "@[<v>phase %d@," x.phase;
    Array.iteri
      (fun idx r ->
        Format.fprintf ppf "  V%d = %s@," (idx + 1)
          (match r with Some r -> P.reg_key r | None -> "_"))
      x.regs;
    Engine_core.pp_locals P.pp P.decision ppf x.locals;
    Format.fprintf ppf "@]"
end

let pp_action ppf { slow; mode } =
  match mode with
  | Absent -> Format.fprintf ppf "(%d,A)" slow
  | Read_late k -> Format.fprintf ppf "(%d,k=%d)" slow k
