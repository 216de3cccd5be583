open Layered_core

type entry = Solo of Pid.t | Pair of Pid.t * Pid.t
type schedule = entry list

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

module Make (P : Protocol.S) = struct
  type state = {
    round : int;
    locals : P.local array;
    mail : (Pid.t * P.msg) list array;
    interned : Intern.slot;
  }

  let n_of x = Array.length x.locals

  let initial ~inputs =
    let n = Array.length inputs in
    {
      round = 0;
      locals = Array.init n (fun i -> P.init ~n ~pid:(i + 1) ~input:inputs.(i));
      mail = Array.make n [];
      interned = Intern.fresh_slot ();
    }

  let initial_states ~n ~values =
    List.map (fun inputs -> initial ~inputs) (Inputs.vectors ~n ~values)

  let check_outgoing n pid outgoing =
    let dests = List.map fst outgoing in
    if List.exists (fun d -> d = pid || d < 1 || d > n) dests then
      invalid_arg "Engine: bad message destination";
    if List.length (List.sort_uniq compare dests) <> List.length dests then
      invalid_arg "Engine: duplicate message destination"

  (* Compute process [i]'s phase against the current state: outgoing
     messages (from the phase-start local state), then the new local state
     after draining the inbox.  Does not mutate. *)
  let phase_of x i =
    let n = n_of x in
    let outgoing = P.send ~n ~pid:i x.locals.(i - 1) in
    check_outgoing n i outgoing;
    let inbox = x.mail.(i - 1) in
    let local' = P.step ~n ~pid:i x.locals.(i - 1) ~inbox in
    (match (P.decision x.locals.(i - 1), P.decision local') with
    | Some v, Some w when not (Value.equal v w) ->
        invalid_arg "Engine: protocol violated write-once decision"
    | Some _, None -> invalid_arg "Engine: protocol erased a decision"
    | (Some _ | None), _ -> ());
    (local', outgoing)

  (* Mailboxes are kept in canonical order: sorted by source pid, FIFO
     within a source (channels are FIFO; the cross-source interleaving of
     concurrently-sent messages is semantically arbitrary, so a canonical
     order keeps state equality independent of it). *)
  let enqueue mail src outgoing =
    List.iter
      (fun (dst, m) ->
        mail.(dst - 1) <-
          List.stable_sort
            (fun (s, _) (s', _) -> compare s s')
            (mail.(dst - 1) @ [ (src, m) ]))
      outgoing

  let apply_entry x entry =
    let locals = Array.copy x.locals and mail = Array.copy x.mail in
    (match entry with
    | Solo i ->
        let local', outgoing =
          phase_of { x with locals; mail; interned = Intern.fresh_slot () } i
        in
        locals.(i - 1) <- local';
        mail.(i - 1) <- [];
        enqueue mail i outgoing
    | Pair (a, b) ->
        if a = b then invalid_arg "Engine: concurrent pair of one process";
        (* Both phases run against the pre-state: neither sees the other's
           fresh messages. *)
        let la, out_a = phase_of x a in
        let lb, out_b = phase_of x b in
        locals.(a - 1) <- la;
        locals.(b - 1) <- lb;
        mail.(a - 1) <- [];
        mail.(b - 1) <- [];
        enqueue mail a out_a;
        enqueue mail b out_b);
    { x with locals; mail; interned = Intern.fresh_slot () }

  let pids_of_entry = function Solo i -> [ i ] | Pair (a, b) -> [ a; b ]

  let validate_schedule n s =
    let pids = List.concat_map pids_of_entry s in
    let distinct = List.sort_uniq compare pids in
    if List.length distinct <> List.length pids then
      invalid_arg "Engine: schedule repeats a process";
    let pairs = List.length (List.filter (function Pair _ -> true | Solo _ -> false) s) in
    if pairs > 1 then invalid_arg "Engine: more than one concurrent pair";
    let count = List.length pids in
    if count <> n && count <> n - 1 then
      invalid_arg "Engine: schedule must involve n or n-1 processes";
    if pairs = 1 && count <> n then
      invalid_arg "Engine: concurrent pair only allowed in full schedules"

  let apply x s =
    validate_schedule (n_of x) s;
    let x' = List.fold_left apply_entry x s in
    { x' with round = x.round + 1; interned = Intern.fresh_slot () }

  let schedules ~n =
    let all = Pid.all n in
    let full = List.map (fun p -> List.map (fun i -> Solo i) p) (permutations all) in
    let drop_last =
      List.map
        (fun p -> List.map (fun i -> Solo i) (List.filteri (fun i _ -> i < n - 1) p))
        (permutations all)
    in
    let with_pair =
      List.concat_map
        (fun p ->
          List.init (n - 1) (fun k ->
              List.mapi (fun i x -> (i, x)) p
              |> List.filter_map (fun (i, x) ->
                     if i = k then
                       let a = List.nth p k and b = List.nth p (k + 1) in
                       Some (Pair (min a b, max a b))
                     else if i = k + 1 then None
                     else Some (Solo x))))
        (permutations all)
    in
    (* Distinct schedules only (drop-last arrangements coincide across
       permutations of the dropped element; pairs are canonicalised). *)
    List.sort_uniq compare (full @ drop_last @ with_pair)

  let raw_key x =
    let buf = Buffer.create 64 in
    Buffer.add_string buf (string_of_int x.round);
    Array.iter
      (fun box ->
        Buffer.add_char buf '|';
        List.iter
          (fun (src, m) ->
            Buffer.add_string buf (string_of_int src);
            Buffer.add_char buf ':';
            Buffer.add_string buf (P.msg_key m);
            Buffer.add_char buf ';')
          box)
      x.mail;
    Array.iter
      (fun l ->
        Buffer.add_char buf '!';
        Buffer.add_string buf (P.key l))
      x.locals;
    Buffer.contents buf

  (* Interning signature: header = round; part i bundles process i's
     mailbox and local key, which [agree_modulo] masks together.  Each
     mailbox entry is length-prefixed so a msg_key containing the
     separators cannot alias across entry boundaries. *)
  let raw_parts x =
    let n = n_of x in
    Array.init (n + 1) (fun i ->
        if i = 0 then string_of_int x.round
        else begin
          let buf = Buffer.create 32 in
          List.iter
            (fun (src, m) ->
              let mk = P.msg_key m in
              Buffer.add_string buf (string_of_int src);
              Buffer.add_char buf ':';
              Buffer.add_string buf (string_of_int (String.length mk));
              Buffer.add_char buf ':';
              Buffer.add_string buf mk;
              Buffer.add_char buf ';')
            x.mail.(i - 1);
          Buffer.add_char buf '!';
          Buffer.add_string buf (P.key x.locals.(i - 1));
          Buffer.contents buf
        end)

  (* Messages addressed to [j] are part of [j]'s interface with the
     environment: if [j] crashes they are never observed, so "agree
     modulo j" compares the mailboxes of every process except [j] —
     which is why part [i] bundles mailbox and local of process [i]. *)
  module Core = Engine_core.Make (struct
    type nonrec state = state
    type local = P.local

    let slot x = x.interned

    type view = int * (Pid.t * P.msg) list array * P.local array

    let view x = (x.round, x.mail, x.locals)
    let key = raw_key
    let parts = raw_parts
    let locals x = x.locals
    let decision = P.decision
    let failed = None
  end)

  include (Core : Engine_core.S with type state := state)

  let sper =
    let table = Hashtbl.create 4 in
    fun x ->
      let n = n_of x in
      let ss =
        match Hashtbl.find_opt table n with
        | Some ss -> ss
        | None ->
            let ss = schedules ~n in
            Hashtbl.add table n ss;
            ss
      in
      dedup_map (apply x) ss

  let in_transit x = Array.fold_left (fun acc box -> acc + List.length box) 0 x.mail

  let pp ppf x =
    Format.fprintf ppf "@[<v>round %d@," x.round;
    Array.iteri
      (fun idx box ->
        Format.fprintf ppf "  mail->%d: %s@," (idx + 1)
          (String.concat ", "
             (List.map (fun (s, m) -> Printf.sprintf "%d:%s" s (P.msg_key m)) box)))
      x.mail;
    Engine_core.pp_locals P.pp P.decision ppf x.locals;
    Format.fprintf ppf "@]"
end

let pp_schedule ppf s =
  let entry = function
    | Solo i -> string_of_int i
    | Pair (a, b) -> Printf.sprintf "{%d,%d}" a b
  in
  Format.fprintf ppf "[%s]" (String.concat "," (List.map entry s))
