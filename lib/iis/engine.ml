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

  (* A partition's row: each process's view, the processes whose writes
     its snapshot holds (its block and every earlier one), as a mask. *)
  let row n blocks =
    let views = Array.make n 0 and seen = ref 0 in
    List.iter
      (fun block ->
        List.iter (fun i -> seen := !seen lor (1 lsl (i - 1))) block;
        List.iter (fun i -> views.(i - 1) <- !seen) block)
      blocks;
    (views, ())

  (* Process [idx + 1]'s new local state at [x] when its view is [seen]:
     each [P.write] runs once per state, first, and the step's snapshot
     lists the writes its view holds. *)
  let local x =
    let n = n_of x in
    let writes = Array.init n (fun k -> (k + 1, P.write ~n ~pid:(k + 1) x.locals.(k))) in
    fun idx seen ->
      let snapshot = ref [] in
      for k = n - 1 downto 0 do
        if seen land (1 lsl k) <> 0 then snapshot := writes.(k) :: !snapshot
      done;
      let local = P.step ~n ~pid:(idx + 1) x.locals.(idx) ~snapshot:!snapshot in
      (match (P.decision x.locals.(idx), P.decision local) with
      | Some v, Some w when not (Value.equal v w) ->
          invalid_arg "Iis: protocol violated write-once decision"
      | Some _, None -> invalid_arg "Iis: protocol erased a decision"
      | (Some _ | None), _ -> ());
      local

  let build x row () =
    { round = x.round + 1; locals = row; interned = Intern.fresh_slot () }

  let apply x blocks =
    let n = n_of x in
    validate_partition n blocks;
    Engine_core.check_mask_width n;
    let views, () = row n blocks in
    build x (Array.mapi (local x) views) ()

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

  let rows =
    Engine_core.per_key (fun n ->
        Engine_core.check_mask_width n;
        let ps = partitions ~n in
        List.iter (validate_partition n) ps;
        Engine_core.rows ~n (List.map (row n) ps))

  let layer x = Engine_core.layer (rows (n_of x)) ~local:(local x) ~env:Fun.id ~build:(build x)
  let layer_size x = Engine_core.layer_size (rows (n_of x)) ~local:(local x) ~env:Fun.id

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
