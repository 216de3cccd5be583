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

  (* Every destination is checked before any repeat, as one bitmask. *)
  let check_outgoing n pid outgoing =
    Engine_core.check_mask_width n;
    if List.exists (fun (d, _) -> d = pid || d < 1 || d > n) outgoing then
      invalid_arg "Engine: bad message destination";
    ignore
      (List.fold_left
         (fun seen (d, _) ->
           let bit = 1 lsl (d - 1) in
           if seen land bit <> 0 then invalid_arg "Engine: duplicate message destination";
           seen lor bit)
         0 outgoing)

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

  (* A schedule's masks.  A process takes at most one phase per schedule,
     so two sets of runners fix what it ends with: its inbox mask, those
     whose phase comes before its entry (a pair partner does not count),
     and its mailbox mask, those whose messages end in its final mailbox
     (the later entries and its pair partner).  A process that sits out
     has only its own bit as its inbox mask, and every runner plus its
     own bit, for the mail it keeps, as its mailbox mask; no runner's
     masks hold its own bit.  [masks n s] is each process's pair. *)
  let masks n s =
    let inbox = Array.init n (fun idx -> 1 lsl idx) and runners = ref 0 in
    List.iter
      (fun e ->
        let pids = pids_of_entry e in
        List.iter (fun i -> inbox.(i - 1) <- !runners) pids;
        List.iter (fun i -> runners := !runners lor (1 lsl (i - 1))) pids)
      s;
    Array.mapi (fun idx before -> (before, !runners lxor (before lor (1 lsl idx)))) inbox

  (* [box] plus the message to [dst] among [src]'s [outgoing], if any *)
  let rec deliver_from src (dst : Pid.t) box = function
    | [] -> box
    | (d, m) :: rest -> if d = dst then insert src m box else deliver_from src dst box rest

  (* A layer's shared work at [x]: every [P.send] runs once, first, and
     a process's masks count only the runners with a message for it (and
     its own bit), so each [P.step] runs once per such inbox mask and
     each final mailbox is built once per such mailbox mask.  Returns
     what process [idx + 1] ends with under its masks: its local state
     and its mailbox. *)
  let work x =
    let n = n_of x in
    let outgoing = Array.init n (fun idx -> send n (idx + 1) x.locals.(idx)) in
    (* senders.(idx): the processes with a message for [idx + 1], and [idx + 1] *)
    let senders = Array.init n (fun idx -> 1 lsl idx) in
    Array.iteri
      (fun s out -> List.iter (fun (d, _) -> senders.(d - 1) <- senders.(d - 1) lor (1 lsl s)) out)
      outgoing;
    (* [box] plus the messages to process [idx + 1] of the runners in [mask] *)
    let deliver idx mask box =
      let box = ref box in
      for s = 0 to n - 1 do
        if s <> idx && mask land (1 lsl s) <> 0 then
          box := deliver_from (s + 1) (idx + 1) !box outgoing.(s)
      done;
      !box
    in
    let local =
      Engine_core.memo ~n (fun idx inbox ->
          if inbox land (1 lsl idx) <> 0 then x.locals.(idx)
          else step n (idx + 1) x.locals.(idx) (deliver idx inbox x.mail.(idx)))
    and mailbox =
      Engine_core.memo ~n (fun idx mail ->
          deliver idx mail (if mail land (1 lsl idx) <> 0 then x.mail.(idx) else []))
    in
    fun idx (inbox, mail) ->
      ( Engine_core.find local idx (inbox land senders.(idx)),
        Engine_core.find mailbox idx (mail land senders.(idx)) )

  let build x row () =
    { round = x.round + 1; locals = Array.map fst row; mail = Array.map snd row;
      interned = Intern.fresh_slot () }

  (* The [S^per] schedules of [n] processes, validated and compiled once. *)
  let rows =
    Engine_core.per_key (fun n ->
        Engine_core.check_mask_width n;
        Engine_core.rows ~n
          (List.map
             (fun s ->
               validate_schedule n s;
               (masks n s, ()))
             (schedules ~n)))

  let sper x = Engine_core.layer (rows (n_of x)) ~local:(work x) ~env:Fun.id ~build:(build x)
  let sper_size x = Engine_core.layer_size (rows (n_of x)) ~local:(work x) ~env:Fun.id

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
