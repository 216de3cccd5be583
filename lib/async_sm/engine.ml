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

  let apply x a = apply_events x (compile x a)

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

  let key x =
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

  let intern_table =
    Intern.create ~view:(fun x -> (x.phase, x.regs, x.locals)) ~key ~parts:raw_parts ()

  let meta x = Intern.memo intern_table x.interned x
  let key x = Intern.key intern_table (meta x) x
  let ident x = (meta x).Intern.id
  let equal x y = ident x = ident y
  let decisions x = Array.map P.decision x.locals

  let decided_vset x =
    Array.fold_left
      (fun acc l -> match P.decision l with Some v -> Vset.add v acc | None -> acc)
      Vset.empty x.locals

  let terminal x = Array.for_all (fun l -> P.decision l <> None) x.locals

  (* Masked part-id equality: phase and the register vector live in the
     header part (compared unmasked), locals of every [i <> j] in the
     remaining parts — the old field-by-field comparison as O(n) int
     compares on interned ids. *)
  let agree_modulo x y j =
    Simgraph.masked_equal (meta x).Intern.parts (meta y).Intern.parts j

  (* No finite failure in this model, so the "other non-failed process"
     condition of Definition 3.1 is automatic (n >= 2). *)
  let similar x y = List.exists (agree_modulo x y) (Pid.all (n_of x))

  let sim_adapter =
    { Simgraph.parts = (fun x -> (meta x).Intern.parts); witness = (fun _ _ _ -> true) }

  let sim_inc = Simgraph.Incremental.create ~rel:similar sim_adapter

  let similarity_graph ?builder states =
    Simgraph.Incremental.build ?builder sim_inc states

  (* Symmetry: the register vector in the header part is indexed by
     process, so permuting the per-process parts alone is not the
     renaming action — exposed for uniformity, unsound to quotient by. *)
  let canon ~roles x = Intern.canon intern_table ~roles x

  let dedup states =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun x ->
        let k = ident x in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      states

  let srw x = dedup (List.map (apply x) (actions ~n:(n_of x)))

  let explore_spec = { Explore.succ = srw; key }
  let valence_spec ~succ = { Valence.succ; key; decided = decided_vset; terminal }

  let pp ppf x =
    Format.fprintf ppf "@[<v>phase %d@," x.phase;
    Array.iteri
      (fun idx r ->
        Format.fprintf ppf "  V%d = %s@," (idx + 1)
          (match r with Some r -> P.reg_key r | None -> "_"))
      x.regs;
    Array.iteri
      (fun idx l ->
        Format.fprintf ppf "  p%d: %a%s@," (idx + 1) P.pp l
          (match P.decision l with
          | Some v -> Printf.sprintf "  [decided %s]" (Value.to_string v)
          | None -> ""))
      x.locals;
    Format.fprintf ppf "@]"
end

let pp_action ppf { slow; mode } =
  match mode with
  | Absent -> Format.fprintf ppf "(%d,A)" slow
  | Read_late k -> Format.fprintf ppf "(%d,k=%d)" slow k
