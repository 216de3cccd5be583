type claimed = (int, unit) Hashtbl.t

(* The first-seen pass: candidates are walked in frontier x successor
   order on the calling domain, so the first candidate of an id wins —
   exactly the serial queue discipline — for every job count. *)
let first_seen (claimed : claimed) ids cands =
  let next = ref [] in
  Array.iteri
    (fun i id ->
      if not (Hashtbl.mem claimed id) then begin
        Hashtbl.replace claimed id ();
        (* chaos site: the table lies that [id] was already claimed, so
           the state is lost — the differential oracles must catch the
           traversal short *)
        if not (Fault.point Fault.Corrupt_dedup_shard) then next := cands.(i) :: !next
      end)
    ids;
  List.rev !next

type 'a snapshot = { levels : 'a list list }
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
   there, and a compaction changes no state and drops no id, so the bytes
   are identical whether, when, or how often the (heap-reading, hence
   nondeterministic) watermark bites. *)
let iter_levels ?budget ?checkpoint ?resume ?canon pool ~succ ~ident ~depth ~f x0 =
  (* Dedup identity: [ident], or with [?canon] the orbit — orbit keys are
     computed in a pooled pass and numbered here, on the calling domain,
     in first-seen order, so the whole orbit shares one id and the
     traversal explores one member per orbit (the first candidate,
     deterministic across job counts). *)
  let orbits = Hashtbl.create 64 in
  let number k =
    match Hashtbl.find_opt orbits k with
    | Some i -> i
    | None ->
        let i = Hashtbl.length orbits in
        Hashtbl.add orbits k i;
        i
  in
  let ids ?budget xs =
    match canon with
    | None -> Pool.parallel_map ?budget pool ident xs
    | Some c -> List.map number (Pool.parallel_map ?budget pool c xs)
  in
  let claimed : claimed = Hashtbl.create 1024 in
  let claim_all level = List.iter (fun i -> Hashtbl.replace claimed i ()) (ids level) in
  let expand frontier =
    Stats.add_states_expanded (List.length frontier);
    let candidates = List.concat (Pool.parallel_map ?budget pool succ frontier) in
    let cands = Array.of_list candidates in
    let next = first_seen claimed (Array.of_list (ids ?budget candidates)) cands in
    Stats.add_dedup_hits (Array.length cands - List.length next);
    (* orbit hits: what the orbit dedup dropped beyond a state-identity
       dedup of the same candidates — distinct states merged into another
       member's orbit *)
    if Option.is_some canon then begin
      let raw = Hashtbl.create (Array.length cands) in
      Array.iter (fun c -> Hashtbl.replace raw (ident c) ()) cands;
      Stats.add_orbit_hits (Hashtbl.length raw - List.length next)
    end;
    (* chaos sites: drop or duplicate a state *after* dedup has settled
       the level, where the damage cannot be absorbed by rediscovery (a
       dropped state's id stays claimed) *)
    Fault.mangle_level next
  in
  (* Checkpoint plumbing.  The completed-level prefix is accumulated
     only when a sink is present; snapshots are cut exclusively at level
     boundaries, after [f] returned, so their content is identical for
     every job count.  A level whose [f] raised [Exhausted] is never
     recorded: the snapshot always describes work the consumer actually
     absorbed, and it is the whole resume state. *)
  let kept = ref [] (* delivered levels, newest first *) in
  let unsaved = ref 0 in
  let record level =
    if Option.is_some checkpoint then begin
      kept := level :: !kept;
      incr unsaved
    end
  in
  let flush ~force =
    match checkpoint with
    | Some ck when !unsaved > 0 && (force || !unsaved >= max 1 ck.every) ->
        ck.save { levels = List.rev !kept };
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
    | Some { levels = _ :: _ as prefix } ->
        (* Re-seed the dedup table from the ids of the delivered levels
           and restart at the last one.  Those ids are exactly what an
           uninterrupted run had claimed at that boundary, so
           re-expanding the restart level rediscovers exactly the
           successors it would have claimed next.  The prefix is neither
           re-delivered to [f] nor re-charged to the budget: callers
           rebuild their own accumulators from the snapshot, and the
           budget is expected to be re-charged from the snapshot's
           recorded consumption. *)
        List.iter claim_all prefix;
        if Option.is_some checkpoint then kept := List.rev prefix;
        let d0 = List.length prefix - 1 in
        go d0 (List.nth prefix d0)
    | Some { levels = [] } | None -> (
        claim_all [ x0 ];
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
let levels ?budget ?checkpoint ?resume ?canon pool ~succ ~ident ~depth x0 =
  let acc = ref (match resume with Some r -> List.rev r.levels | None -> []) in
  let status =
    iter_levels ?budget ?checkpoint ?resume ?canon pool ~succ ~ident ~depth
      ~f:(fun level -> acc := level :: !acc)
      x0
  in
  { Budget.value = List.rev !acc; status }

let reachable ?budget ?checkpoint ?resume ?canon pool ~succ ~ident ~depth x0 =
  let o = levels ?budget ?checkpoint ?resume ?canon pool ~succ ~ident ~depth x0 in
  { o with Budget.value = List.concat o.Budget.value }

let count_reachable ?budget ?checkpoint ?resume ?canon pool ~succ ~ident ~depth x0 =
  let n =
    ref
      (match resume with
      | Some r -> List.fold_left (fun a l -> a + List.length l) 0 r.levels
      | None -> 0)
  in
  let status =
    iter_levels ?budget ?checkpoint ?resume ?canon pool ~succ ~ident ~depth
      ~f:(fun level -> n := !n + List.length level)
      x0
  in
  { Budget.value = !n; status }

exception Found

let exists_reachable ?budget pool ~succ ~ident ~depth ~pred x0 =
  let check level =
    if List.exists Fun.id (Pool.parallel_map ?budget pool pred level) then
      raise_notrace Found
  in
  match iter_levels ?budget pool ~succ ~ident ~depth ~f:check x0 with
  | status -> { Budget.value = false; status }
  | exception Found -> { Budget.value = true; status = Budget.Complete }
