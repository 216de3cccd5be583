open Layered_core

type slowness = Absent | Late of int
type action = { slow : Pid.t; mode : slowness }

module Make (P : Layered_sync.Protocol.S) = struct
  type packet = { src : Pid.t; dst : Pid.t; msg : P.msg; sent : int }

  type state = {
    round : int;
    locals : P.local array;
    transit : packet list;
    interned : Intern.slot;
  }

  let n_of x = Array.length x.locals

  let initial ~inputs =
    let n = Array.length inputs in
    {
      round = 0;
      locals = Array.init n (fun i -> P.init ~n ~pid:(i + 1) ~input:inputs.(i));
      transit = [];
      interned = Intern.fresh_slot ();
    }

  let initial_states ~n ~values =
    List.map (fun inputs -> initial ~inputs) (Inputs.vectors ~n ~values)

  let actions ~n =
    List.concat_map
      (fun j ->
        { slow = j; mode = Absent }
        :: List.map (fun k -> { slow = j; mode = Late k }) (0 :: Pid.all n))
      (Pid.all n)

  let apply x { slow = j; mode } =
    let n = n_of x in
    let round = x.round + 1 in
    let sends i = not (i = j && mode = Absent) in
    let fresh =
      List.concat_map
        (fun i ->
          if not (sends i) then []
          else
            List.filter_map
              (fun d ->
                match P.send ~n ~round ~pid:i x.locals.(i - 1) ~dest:d with
                | Some msg -> Some { src = i; dst = d; msg; sent = round }
                | None -> None)
              (Pid.others n i))
        (Pid.all n)
    in
    let transit = x.transit @ fresh in
    let receives i = not (i = j && mode = Absent) in
    (* Early proper readers miss the slow process's fresh message. *)
    let eligible i p =
      p.dst = i
      &&
      match mode with
      | Late k when i <> j && i <= k -> not (p.src = j && p.sent = round)
      | Late _ | Absent -> true
    in
    (* FIFO: deliver the oldest eligible packet per source. *)
    let indexed = List.mapi (fun idx p -> (idx, p)) transit in
    let delivered = Hashtbl.create 16 in
    let received_by i =
      let inbox = Array.make n None in
      List.iter
        (fun (idx, p) ->
          if eligible i p && inbox.(p.src - 1) = None then begin
            inbox.(p.src - 1) <- Some p.msg;
            Hashtbl.replace delivered idx ()
          end)
        indexed;
      inbox
    in
    let locals =
      Array.init n (fun idx ->
          let i = idx + 1 in
          if receives i then P.step ~n ~round ~pid:i x.locals.(idx) ~received:(received_by i)
          else x.locals.(idx))
    in
    let transit =
      List.filter_map
        (fun (idx, p) -> if Hashtbl.mem delivered idx then None else Some p)
        indexed
    in
    { round; locals; transit; interned = Intern.fresh_slot () }

  let packet_key p = Printf.sprintf "%d>%d@%d:%s" p.src p.dst p.sent (P.msg_key p.msg)

  let raw_key x =
    let buf = Buffer.create 64 in
    Buffer.add_string buf (string_of_int x.round);
    List.iter
      (fun p ->
        Buffer.add_char buf '|';
        Buffer.add_string buf (packet_key p))
      x.transit;
    Array.iter
      (fun l ->
        Buffer.add_char buf '!';
        Buffer.add_string buf (P.key l))
      x.locals;
    Buffer.contents buf

  (* Interning signature: [agree_modulo] compares round + the whole
     transit list unmasked, so they form the header part; part i is
     process i's local key.  Packet renders are length-prefixed so a
     msg_key containing the separators cannot alias. *)
  let raw_parts x =
    let n = n_of x in
    Array.init (n + 1) (fun i ->
        if i = 0 then begin
          let buf = Buffer.create 32 in
          Buffer.add_string buf (string_of_int x.round);
          List.iter
            (fun p ->
              let pk = packet_key p in
              Buffer.add_char buf '|';
              Buffer.add_string buf (string_of_int (String.length pk));
              Buffer.add_char buf ':';
              Buffer.add_string buf pk)
            x.transit;
          Buffer.contents buf
        end
        else P.key x.locals.(i - 1))

  module Core = Engine_core.Make (struct
    type nonrec state = state
    type local = P.local

    let slot x = x.interned

    type view = int * packet list * P.local array

    let view x = (x.round, x.transit, x.locals)
    let key = raw_key
    let parts = raw_parts
    let locals x = x.locals
    let decision = P.decision
    let failed = None
  end)

  include (Core : Engine_core.S with type state := state)

  let smp x = dedup_map (apply x) (actions ~n:(n_of x))
  let in_transit x = List.length x.transit

  let pp ppf x =
    Format.fprintf ppf "@[<v>round %d, %d in transit@," x.round (in_transit x);
    Engine_core.pp_locals P.pp P.decision ppf x.locals;
    Format.fprintf ppf "@]"
end

let pp_action ppf { slow; mode } =
  match mode with
  | Absent -> Format.fprintf ppf "(%d,A)" slow
  | Late k -> Format.fprintf ppf "(%d,k=%d)" slow k
