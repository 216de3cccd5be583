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

  (* Process [i]'s outgoing messages from [local], and its new local state
     after draining [inbox], each with its protocol-contract guards. *)
  let send n i local =
    let outgoing = P.send ~n ~pid:i local in
    check_outgoing n i outgoing;
    outgoing

  let step n i local inbox =
    let local' = P.step ~n ~pid:i local ~inbox in
    (match (P.decision local, P.decision local') with
    | Some v, Some w when not (Value.equal v w) ->
        invalid_arg "Engine: protocol violated write-once decision"
    | Some _, None -> invalid_arg "Engine: protocol erased a decision"
    | (Some _ | None), _ -> ());
    local'

  (* Process [i]'s phase against [locals] and [mail]: outgoing messages
     (from the phase-start local state), then the new local state.  Does
     not mutate. *)
  let phase n locals mail i =
    let local = locals.(i - 1) in
    let outgoing = send n i local in
    (step n i local mail.(i - 1), outgoing)

  (* Mailboxes are kept in canonical order: sorted by source pid, FIFO
     within a source (channels are FIFO; the cross-source interleaving of
     concurrently-sent messages is semantically arbitrary, so a canonical
     order keeps state equality independent of it).  Each message goes
     in after every message from a source up to its own, so messages
     from distinct sources give one mailbox in any insertion order. *)
  let rec insert src m = function
    | ((s, _) as e) :: rest when s <= src -> e :: insert src m rest
    | box -> (src, m) :: box

  let enqueue mail src outgoing =
    List.iter (fun (dst, m) -> mail.(dst - 1) <- insert src m mail.(dst - 1)) outgoing

  (* The entry runner: one phase, or a concurrent pair of phases, run in
     place on [locals] and [mail]. *)
  let run_entry n locals mail = function
    | Solo i ->
        let local', outgoing = phase n locals mail i in
        locals.(i - 1) <- local';
        mail.(i - 1) <- [];
        enqueue mail i outgoing
    | Pair (a, b) ->
        if a = b then invalid_arg "Engine: concurrent pair of one process";
        (* Both phases run against the pre-state: neither sees the other's
           fresh messages. *)
        let la, out_a = phase n locals mail a in
        let lb, out_b = phase n locals mail b in
        locals.(a - 1) <- la;
        locals.(b - 1) <- lb;
        mail.(a - 1) <- [];
        mail.(b - 1) <- [];
        enqueue mail a out_a;
        enqueue mail b out_b

  let apply_entry x entry =
    let locals = Array.copy x.locals and mail = Array.copy x.mail in
    run_entry (n_of x) locals mail entry;
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
    if (count <> n && count <> n - 1) || List.exists (fun i -> i < 1 || i > n) pids then
      invalid_arg "Engine: schedule must involve n or n-1 processes";
    if pairs = 1 && count <> n then
      invalid_arg "Engine: concurrent pair only allowed in full schedules"

  let apply x s =
    let n = n_of x in
    validate_schedule n s;
    let locals = Array.copy x.locals and mail = Array.copy x.mail in
    List.iter (run_entry n locals mail) s;
    { round = x.round + 1; locals; mail; interned = Intern.fresh_slot () }

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

  (* The [S^per] schedules of [n] processes, validated once and kept as
     two masks per process.  A process takes at most one phase per
     schedule, so two sets of runners fix what it ends with: its inbox
     mask, those whose phase comes before its entry (a pair partner does
     not count), and its mailbox mask, those whose messages end in its
     final mailbox (the later entries and its pair partner).  A process
     that sits out has only its own bit as its inbox mask, and every
     runner plus its own bit, for the mail it keeps, as its mailbox
     mask; no runner's masks hold its own bit. *)
  let plans =
    Engine_core.per_n (fun n ->
        Engine_core.check_mask_width n;
        List.map
          (fun s ->
            validate_schedule n s;
            let inbox = Array.init n (fun idx -> 1 lsl idx) and runners = ref 0 in
            List.iter
              (fun e ->
                let pids = pids_of_entry e in
                List.iter (fun i -> inbox.(i - 1) <- !runners) pids;
                List.iter (fun i -> runners := !runners lor (1 lsl (i - 1))) pids)
              s;
            (inbox, Array.mapi (fun idx before -> !runners lxor (before lor (1 lsl idx))) inbox))
          (schedules ~n))

  (* [classes n f] is [f] on (process index, mask), each value computed
     on first use and paired with its class among the process's values
     so far under [compare], the identity's equality. *)
  let classes n f =
    let cells = Array.init n (fun _ -> Array.make (1 lsl n) None) and seen = Array.make n [] in
    fun idx mask ->
      match cells.(idx).(mask) with
      | Some found -> found
      | None ->
          let v = f idx mask in
          let found =
            match List.find_opt (fun (_, w) -> compare v w = 0) seen.(idx) with
            | Some found -> found
            | None ->
                let found = (List.length seen.(idx), v) in
                seen.(idx) <- found :: seen.(idx);
                found
          in
          cells.(idx).(mask) <- Some found;
          found

  (* Each [P.send] runs once, each [P.step] once per inbox mask of its
     process, and each final mailbox is built once per mailbox mask.  A
     schedule's successor is then fixed by a class of local states and
     one of mailboxes per process, and only a schedule whose classes are
     new builds its state: the list and its order are those of
     deduplicating [apply x] over {!schedules}.  Distinct classes are
     distinct views, so nothing is interned here; a successor gets its
     id when something first asks for it. *)
  let sper x =
    let n = n_of x in
    let plans = plans n in
    let outgoing = Array.init n (fun idx -> send n (idx + 1) x.locals.(idx)) in
    (* [box] plus the messages to process [idx + 1] of the runners in
       [mask] (a process sends itself none) *)
    let deliver idx mask box =
      let box = ref box in
      for s = 0 to n - 1 do
        if mask land (1 lsl s) <> 0 then
          match List.assoc_opt (idx + 1) outgoing.(s) with
          | Some m -> box := insert (s + 1) m !box
          | None -> ()
      done;
      !box
    in
    let own idx mask = mask land (1 lsl idx) <> 0 in
    let local =
      classes n (fun idx before ->
          if own idx before then x.locals.(idx)
          else step n (idx + 1) x.locals.(idx) (deliver idx before x.mail.(idx)))
    and mailbox =
      classes n (fun idx mask -> deliver idx mask (if own idx mask then x.mail.(idx) else []))
    in
    let seen = Hashtbl.create 64 in
    List.filter_map
      (fun (inboxes, mailboxes) ->
        let key =
          Array.init n (fun idx ->
              (fst (local idx inboxes.(idx)) lsl n) lor fst (mailbox idx mailboxes.(idx)))
        in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some
            {
              round = x.round + 1;
              locals = Array.init n (fun idx -> snd (local idx inboxes.(idx)));
              mail = Array.init n (fun idx -> snd (mailbox idx mailboxes.(idx)));
              interned = Intern.fresh_slot ();
            }
        end)
      plans

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
