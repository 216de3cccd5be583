open Layered_core

type partition = Pid.t list list

let nonempty_subsets l =
  let rec go = function
    | [] -> [ [] ]
    | x :: rest ->
        let s = go rest in
        s @ List.map (fun sub -> x :: sub) s
  in
  List.filter (fun s -> s <> []) (go l)

let partitions ~n =
  let rec go remaining =
    match remaining with
    | [] -> [ [] ]
    | _ :: _ ->
        List.concat_map
          (fun block ->
            let rest = List.filter (fun i -> not (List.mem i block)) remaining in
            List.map (fun tail -> block :: tail) (go rest))
          (nonempty_subsets remaining)
  in
  go (Pid.all n)

let rec binomial n k =
  if k = 0 || k = n then 1
  else if k < 0 || k > n then 0
  else binomial (n - 1) (k - 1) + binomial (n - 1) k

let fubini n =
  let memo = Array.make (n + 1) 0 in
  memo.(0) <- 1;
  for m = 1 to n do
    let total = ref 0 in
    for k = 1 to m do
      total := !total + (binomial m k * memo.(m - k))
    done;
    memo.(m) <- !total
  done;
  memo.(n)

module Make (P : Protocol.S) = struct
  type state = { round : int; locals : P.local array; interned : Intern.slot }

  let n_of x = Array.length x.locals

  let initial ~inputs =
    let n = Array.length inputs in
    {
      round = 0;
      locals = Array.init n (fun i -> P.init ~n ~pid:(i + 1) ~input:inputs.(i));
      interned = Intern.fresh_slot ();
    }

  let initial_states ~n ~values =
    List.map (fun inputs -> initial ~inputs) (Inputs.vectors ~n ~values)

  let validate_partition n blocks =
    let members = List.concat blocks in
    if List.exists (fun b -> b = []) blocks then invalid_arg "Iis: empty block";
    if List.sort compare members <> Pid.all n then
      invalid_arg "Iis: blocks must partition {1..n}"

  (* One round from [x] under any valid ordered partition.  Each
     [P.write] runs once, and each [P.step] once per (process, view set):
     the view is the union of the blocks up to and including the
     process's own, kept as a bitmask. *)
  let successor x =
    let n = n_of x in
    Engine_core.check_mask_width n;
    let round = x.round + 1 in
    let writes = Array.init n (fun idx -> P.write ~n ~pid:(idx + 1) x.locals.(idx)) in
    let step =
      Engine_core.memo_masks n (fun idx seen ->
          let snapshot = ref [] in
          for k = n - 1 downto 0 do
            if seen land (1 lsl k) <> 0 then snapshot := (k + 1, writes.(k)) :: !snapshot
          done;
          let local = P.step ~n ~pid:(idx + 1) x.locals.(idx) ~snapshot:!snapshot in
          (match (P.decision x.locals.(idx), P.decision local) with
          | Some v, Some w when not (Value.equal v w) ->
              invalid_arg "Iis: protocol violated write-once decision"
          | Some _, None -> invalid_arg "Iis: protocol erased a decision"
          | (Some _ | None), _ -> ());
          local)
    in
    fun blocks ->
      let locals = Array.copy x.locals and seen = ref 0 in
      List.iter
        (fun block ->
          List.iter (fun i -> seen := !seen lor (1 lsl (i - 1))) block;
          List.iter (fun i -> locals.(i - 1) <- step (i - 1) !seen) block)
        blocks;
      { round; locals; interned = Intern.fresh_slot () }

  let apply x blocks =
    validate_partition (n_of x) blocks;
    successor x blocks

  let raw_key x =
    let buf = Buffer.create 64 in
    Buffer.add_string buf (string_of_int x.round);
    Array.iter
      (fun l ->
        Buffer.add_char buf '|';
        Buffer.add_string buf (P.key l))
      x.locals;
    Buffer.contents buf

  (* Interning signature: header = round, part i = process i's local key —
     the environment carries nothing across rounds in this model, so that
     is exactly the data [agree_modulo] compares outside the mask. *)
  let raw_parts x =
    let n = n_of x in
    Array.init (n + 1) (fun i ->
        if i = 0 then string_of_int x.round else P.key x.locals.(i - 1))

  module Core = Engine_core.Make (struct
    type nonrec state = state
    type local = P.local

    let slot x = x.interned

    type view = int * P.local array

    let view x = (x.round, x.locals)
    let key = raw_key
    let parts = raw_parts
    let locals x = x.locals
    let decision = P.decision
    let failed = None
  end)

  include (Core : Engine_core.S with type state := state)

  let partitions_of =
    Engine_core.per_n (fun n ->
        let ps = partitions ~n in
        List.iter (validate_partition n) ps;
        ps)

  let layer x = dedup_map (successor x) (partitions_of (n_of x))

  let pp ppf x =
    Format.fprintf ppf "@[<v>round %d@," x.round;
    Engine_core.pp_locals P.pp P.decision ppf x.locals;
    Format.fprintf ppf "@]"
end

let pp_partition ppf blocks =
  List.iter
    (fun b ->
      Format.fprintf ppf "{%s}" (String.concat "," (List.map string_of_int b)))
    blocks
