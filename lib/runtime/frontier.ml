(* Key-sharded visited table.  An entry's value is either a provisional
   minimum candidate index for the level being built (>= 0) or the
   committed marker -1 (state claimed at this or an earlier level). *)
module Shards = struct
  type t = {
    tables : (string, int) Hashtbl.t array;
    mutexes : Mutex.t array;
    mask : int;
  }

  let create ~shards =
    let rec pow2 m = if m >= shards then m else pow2 (m * 2) in
    let m = pow2 1 in
    {
      tables = Array.init m (fun _ -> Hashtbl.create 64);
      mutexes = Array.init m (fun _ -> Mutex.create ());
      mask = m - 1;
    }

  let with_shard t k f =
    let i = Hashtbl.hash k land t.mask in
    let m = t.mutexes.(i) in
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> f t.tables.(i))

  let commit t k = with_shard t k (fun tbl -> Hashtbl.replace tbl k (-1))

  (* Pass A: propose candidate [idx] for key [k]; the minimum index wins.
     Committed keys are never displaced. *)
  let propose t k idx =
    with_shard t k (fun tbl ->
        (* chaos site: the shard lies that [k] was already claimed, so no
           candidate for it can win pass B and the state is lost — the
           differential oracles must catch the parallel leg short *)
        if Fault.point Fault.Corrupt_dedup_shard then Hashtbl.replace tbl k (-1)
        else
          match Hashtbl.find_opt tbl k with
          | None -> Hashtbl.replace tbl k idx
          | Some v when v >= 0 && idx < v -> Hashtbl.replace tbl k idx
          | Some _ -> ())

  (* Pass B: true iff [idx] is the recorded winner for [k]; commits the
     key on success.  Sound only after every proposal of the level has
     settled (the passes are separated by a pool barrier). *)
  let claim t k idx =
    with_shard t k (fun tbl ->
        match Hashtbl.find_opt tbl k with
        | Some v when v = idx ->
            Hashtbl.replace tbl k (-1);
            true
        | _ -> false)

  (* Sorted committed keys — the resume seed for a fresh table.  Takes
     each shard's mutex, though every caller runs at a level boundary
     where no pool pass is in flight. *)
  let committed t =
    let acc = ref [] in
    Array.iteri
      (fun i tbl ->
        let m = t.mutexes.(i) in
        Mutex.lock m;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock m)
          (fun () ->
            Hashtbl.iter (fun k v -> if v = -1 then acc := k :: !acc) tbl))
      t.tables;
    List.sort compare !acc
end

let default_shards = 64

type 'a snapshot = { levels : 'a list list; committed : string list }
type 'a checkpoint = { every : int; save : 'a snapshot -> unit }

(* Drive the level-synchronous BFS, calling [f] on each level (the root
   singleton included) as it is completed.  Returns the budget status:
   levels delivered to [f] are always a complete prefix — the states-cap
   decision happens only at level boundaries from the charged counts, so
   a States truncation is deterministic across job counts, while a
   deadline/cancellation firing mid-level (via [Budget.Exhausted] out of
   a pool pass) abandons that level wholesale.

   Each level boundary also walks the budget's soft watermark
   (Budget.relieve: count the crossing, compact).  The pool is quiescent
   there, and a compaction changes no state and drops no key, so the bytes
   are identical whether, when, or how often the (heap-reading, hence
   nondeterministic) watermark bites. *)
let iter_levels ?budget ?checkpoint ?resume ?canon pool ~succ ~key ~depth ~f x0 =
  (* Dedup key: with [?canon], states are claimed by orbit representative
     — the whole orbit shares one shard entry, so the traversal explores
     one member per orbit (the minimum candidate index, deterministic
     across job counts).  Committed keys and the checkpoint's [committed]
     list hold canon keys, which is what makes snapshots refuse to cross
     a symmetry-setting change. *)
  let dedup_key = match canon with Some c -> c | None -> key in
  let tbl = Shards.create ~shards:default_shards in
  let expand frontier =
    Stats.add_states_expanded (List.length frontier);
    let candidates = List.concat (Pool.parallel_map ?budget pool succ frontier) in
    let cands = Array.of_list candidates in
    let keys = Array.of_list (Pool.parallel_map ?budget pool dedup_key candidates) in
    let idxs = List.init (Array.length cands) Fun.id in
    Pool.parallel_iter ?budget pool (fun i -> Shards.propose tbl keys.(i) i) idxs;
    let winners =
      Pool.parallel_map ?budget pool
        (fun i -> if Shards.claim tbl keys.(i) i then Some cands.(i) else None)
        idxs
    in
    let next = List.filter_map Fun.id winners in
    Stats.add_dedup_hits (Array.length cands - List.length next);
    (* orbit hits: what the orbit dedup dropped beyond a raw-key dedup
       of the same candidates — distinct states merged into another
       member's orbit *)
    if Option.is_some canon then begin
      let raw = Hashtbl.create (Array.length cands) in
      Array.iter (fun c -> Hashtbl.replace raw (key c) ()) cands;
      Stats.add_orbit_hits (Hashtbl.length raw - List.length next)
    end;
    (* chaos sites: drop or duplicate a state *after* dedup has settled
       the level, where the damage cannot be absorbed by rediscovery
       (the dropped state's key stays committed in the shards) *)
    Fault.mangle_level next
  in
  (* Checkpoint plumbing.  The completed-level prefix is accumulated
     only when a sink is present; snapshots are cut exclusively at level
     boundaries, after [f] returned, so their content (levels + committed
     keys) is identical for every job count.  A level whose [f] raised
     [Exhausted] is never recorded: the snapshot always describes work
     the consumer actually absorbed. *)
  let kept = ref [] (* delivered levels, newest first *) in
  let unsaved = ref 0 in
  let record level =
    match checkpoint with
    | None -> ()
    | Some _ ->
        kept := level :: !kept;
        incr unsaved
  in
  let flush ~force =
    match checkpoint with
    | Some ck when !unsaved > 0 && (force || !unsaved >= max 1 ck.every) ->
        ck.save { levels = List.rev !kept; committed = Shards.committed tbl };
        unsaved := 0
    | _ -> ()
  in
  (* [go d frontier]: [frontier] is the completed level [d]; expanding it
     yields level [d + 1].  A truncation while (or before) expanding
     level [d]'s successors reports [at_depth = d]. *)
  let rec go d frontier =
    if d >= depth || frontier = [] then None
    else
      match Budget.exceeded_opt budget with
      | Some reason -> Some (reason, d)
      | None -> (
          match expand frontier with
          | exception Budget.Exhausted reason -> Some (reason, d)
          | [] -> None
          | next -> (
              Budget.charge_opt budget (List.length next);
              match f next with
              | exception Budget.Exhausted reason -> Some (reason, d + 1)
              | () ->
                  record next;
                  flush ~force:false;
                  Budget.relieve budget;
                  go (d + 1) next))
  in
  let trunc =
    match resume with
    | Some { levels = _ :: _ as prefix; committed } ->
        (* Re-seed the dedup table from the snapshot and restart at its
           last completed level.  The prefix is neither re-delivered to
           [f] nor re-charged to the budget: callers rebuild their own
           accumulators from the snapshot, and the budget is expected to
           be re-charged from the snapshot's recorded consumption.
           Re-expanding the restart level rediscovers exactly the
           successors the interrupted run would have claimed next, since
           every earlier claim is committed. *)
        List.iter (Shards.commit tbl) committed;
        if Option.is_some checkpoint then kept := List.rev prefix;
        let d0 = List.length prefix - 1 in
        go d0 (List.nth prefix d0)
    | Some { levels = []; _ } | None -> (
        Shards.commit tbl (dedup_key x0);
        Budget.charge_opt budget 1;
        match f [ x0 ] with
        | exception Budget.Exhausted reason -> Some (reason, 0)
        | () ->
            record [ x0 ];
            flush ~force:false;
            go 0 [ x0 ])
  in
  (* Budget exhaustion (deadline, cap, SIGINT-driven cancellation) and
     clean completion alike flush whatever levels are not yet saved. *)
  flush ~force:true;
  match trunc with
  | None -> Budget.Complete
  | Some (reason, at_depth) -> (
      match budget with
      | Some b -> Budget.truncated b ~reason ~at_depth
      | None -> assert false (* Exhausted only arises from a budget *))

(* The wrappers seed their accumulators from the resume prefix, because
   [iter_levels ~resume] does not re-deliver prefix levels to [f]. *)
let levels ?budget ?checkpoint ?resume ?canon pool ~succ ~key ~depth x0 =
  let acc = ref (match resume with Some r -> List.rev r.levels | None -> []) in
  let status =
    iter_levels ?budget ?checkpoint ?resume ?canon pool ~succ ~key ~depth
      ~f:(fun level -> acc := level :: !acc)
      x0
  in
  { Budget.value = List.rev !acc; status }

let reachable ?budget ?checkpoint ?resume ?canon pool ~succ ~key ~depth x0 =
  let o = levels ?budget ?checkpoint ?resume ?canon pool ~succ ~key ~depth x0 in
  { o with Budget.value = List.concat o.Budget.value }

let count_reachable ?budget ?checkpoint ?resume ?canon pool ~succ ~key ~depth x0 =
  let n =
    ref
      (match resume with
      | Some r -> List.fold_left (fun a l -> a + List.length l) 0 r.levels
      | None -> 0)
  in
  let status =
    iter_levels ?budget ?checkpoint ?resume ?canon pool ~succ ~key ~depth
      ~f:(fun level -> n := !n + List.length level)
      x0
  in
  { Budget.value = !n; status }

exception Found

let exists_reachable ?budget pool ~succ ~key ~depth ~pred x0 =
  let check level =
    if List.exists Fun.id (Pool.parallel_map ?budget pool pred level) then
      raise_notrace Found
  in
  match iter_levels ?budget pool ~succ ~key ~depth ~f:check x0 with
  | status -> { Budget.value = false; status }
  | exception Found -> { Budget.value = true; status = Budget.Complete }
