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

  (* An action's row, validated: each receiver's label, the sender whose
     fresh packet it misses ([n]: none) or [n + 1] when it takes no step,
     and the environment label: the slow [j], whether it is absent, and
     when late the mask of the receivers that miss its fresh packet (one
     label for every late action that no one misses). *)
  let row n { slow = j; mode } =
    Engine_core.check_mask_width n;
    if j < 1 || j > n then invalid_arg "Synchronic.apply: bad slow process";
    let j = j - 1 in
    (* receivers [r] that miss [j]'s fresh packets; [j] itself neither
       sends nor receives when absent *)
    let absent, misses =
      match mode with
      | Absent -> (true, fun r -> r <> j)
      | Late k ->
          if k < 0 || k > n then invalid_arg "Synchronic.apply: bad late count";
          (false, fun r -> r <> j && r < k)
    in
    let labels =
      Array.init n (fun r -> if absent && r = j then n + 1 else if misses r then j else n)
    in
    let missed = ref 0 in
    Array.iteri (fun r m -> if m = j then missed := !missed lor (1 lsl r)) labels;
    ( labels,
      if absent then (j, true, 0) else if !missed = 0 then (0, false, 0) else (j, false, !missed) )

  (* One virtual round's shared work at [x]: each [P.send] runs at most
     once, first, the round's fresh packets are built once for every
     successor to share, the position of each (receiver, source)'s oldest
     in-transit packet is found once, and each [P.step] runs once per
     (receiver, source whose fresh packet it misses; missing one that
     would not arrive anyway is missing none), on first use.  Every
     receiver gets its oldest packet from each source, a fresh one only
     where there is none in transit and it is not missed, so the sender
     [absent] (one action's, or [-1]) sends only if a receiver holds no
     older packet from it.  Returns the local state a label gives, the
     packets an environment label keeps in transit, and their list. *)
  let work ~absent x =
    let n = n_of x in
    let round = x.round + 1 and fresh_at = List.length x.transit in
    (* oldest.((r * n) + s): position of the oldest packet from [s + 1] to
       [r + 1]; inbox.((r * n) + s): what [r + 1] gets from [s + 1] unless
       it misses a fresh packet *)
    let oldest = Array.make (n * n) (-1) in
    List.iteri
      (fun pos p ->
        let c = ((p.dst - 1) * n) + p.src - 1 in
        if oldest.(c) < 0 then oldest.(c) <- pos)
      x.transit;
    (* fresh.((r * n) + s): [s + 1]'s message to [r + 1] this round; every
       packet: the old ones, then the fresh ones by sender and receiver *)
    let fresh = Array.make (n * n) None and l = ref [] in
    for s = n - 1 downto 0 do
      let sends = ref (s <> absent) in
      for r = 0 to n - 1 do
        if r <> s && oldest.((r * n) + s) < 0 then sends := true
      done;
      for r = n - 1 downto 0 do
        if !sends && r <> s then begin
          fresh.((r * n) + s) <- P.send ~n ~round ~pid:(s + 1) x.locals.(s) ~dest:(r + 1);
          match fresh.((r * n) + s) with
          | Some msg -> l := { src = s + 1; dst = r + 1; msg; sent = round } :: !l
          | None -> ()
        end
      done
    done;
    let packets = Array.of_list (x.transit @ !l) in
    let inbox =
      Array.mapi (fun c pos -> if pos >= 0 then Some packets.(pos).msg else fresh.(c)) oldest
    in
    let arrives s r = oldest.((r * n) + s) < 0 && Option.is_some fresh.((r * n) + s) in
    (* [r]'s step when it misses [missed]'s fresh packet ([missed = n]:
       none) *)
    let step =
      Engine_core.memo ~n (fun r missed ->
          let received = Array.sub inbox (r * n) n in
          if missed < n then received.(missed) <- None;
          P.step ~n ~round ~pid:(r + 1) x.locals.(r) ~received)
    in
    let local r m =
      if m > n then x.locals.(r)
      else Engine_core.find step r (if m < n && arrives m r then m else n)
    in
    (* The packets an environment label leaves in transit, as one flag
       per packet.  Each receiver takes its oldest packet from each
       source, and a fresh one only where none is older and it is not
       missed; an absent [j] takes nothing and sends nothing.  No two
       packets are equal (one per sender, receiver and round), so equal
       flags are exactly equal transits, and the kernel classes flags. *)
    let kept (j, absent, missed) =
      let flags = Bytes.make (Array.length packets) '\000' in
      for pos = 0 to Array.length packets - 1 do
        let s = packets.(pos).src - 1 and r = packets.(pos).dst - 1 in
        let taken =
          (not (absent && r = j))
          &&
          if pos < fresh_at then oldest.((r * n) + s) = pos
          else oldest.((r * n) + s) < 0 && not (s = j && missed land (1 lsl r) <> 0)
        in
        if not (taken || (absent && s = j && pos >= fresh_at)) then Bytes.set flags pos '\001'
      done;
      flags
    in
    let transit flags =
      let out = ref [] in
      for pos = Array.length packets - 1 downto 0 do
        if Bytes.get flags pos <> '\000' then out := packets.(pos) :: !out
      done;
      !out
    in
    (local, kept, transit)

  let build x transit row kept =
    { round = x.round + 1; locals = row; transit = transit kept;
      interned = Intern.fresh_slot () }

  let apply x a =
    let labels, ((j, absent, _) as e) = row (n_of x) a in
    let local, kept, transit = work ~absent:(if absent then j else -1) x in
    build x transit (Array.mapi local labels) (kept e)

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

  let rows = Engine_core.per_key (fun n -> Engine_core.rows ~n (List.map (row n) (actions ~n)))

  let smp x =
    let local, kept, transit = work ~absent:(-1) x in
    Engine_core.layer (rows (n_of x)) ~local ~env:kept ~build:(build x transit)

  let smp_size x =
    let local, kept, _ = work ~absent:(-1) x in
    Engine_core.layer_size (rows (n_of x)) ~local ~env:kept

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
