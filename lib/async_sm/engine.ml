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

  (* One phase from [x] under any action, equal to
     [apply_events x (compile x a)].  The writes are shared: per slow
     [j], on first use, the register vector after the proper writes, and
     one vector after every write (the slow process writes last).  Each
     scan runs once per (pid, vector); [Absent] and [Read_late k] only
     choose which scan each process gets. *)
  let successor x =
    let n = n_of x in
    let phase = x.phase + 1 in
    let write = Engine_core.memo n (fun i -> P.write ~n ~pid:(i + 1) x.locals.(i)) in
    (* regs j: every write but process [j + 1]'s; regs n: every write *)
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
    let scan i v = scans ((v * n) + i) in
    fun { slow = j; mode } ->
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
      let locals =
        Array.init n (fun i ->
            if i = j then if absent then x.locals.(i) else scan i n
            else if i < early then scan i j
            else scan i n)
      in
      let regs = regs (if absent then j else n) in
      { phase; locals; regs; interned = Intern.fresh_slot () }

  let apply x a = successor x a

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

  let srw x = dedup_map (successor x) (actions ~n:(n_of x))

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
