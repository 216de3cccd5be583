open Layered_core

module Budget = Layered_runtime.Budget
module Ckpt = Layered_runtime.Checkpoint
module Stats = Layered_runtime.Stats
module Frontier = Layered_runtime.Frontier
module Pool = Layered_runtime.Pool

type level = { depth : int; reachable : int; layer_min : int; layer_max : int }
type t = { model : string; n : int; levels : level list; status : Budget.status }
type checkpoint = { dir : string; every : int; resume : bool }

let checkpoint_name ~model ~n ~t ~depth =
  Printf.sprintf "sweep-%s-n%d-t%d-d%d" model n t depth

(* A mixed input vector: process 1 gets 0, the rest 1. *)
let mixed_inputs n = Array.init n (fun i -> if i = 0 then Value.zero else Value.one)

(* A single level-synchronous BFS yields every per-depth figure at once:
   the boundary at depth d is exactly level d, and the reachable count at
   depth d is the cumulative level size. *)
(* Per-level layer-size statistics are accumulated while the BFS itself
   expands each level (an instrumented [succ]), not by a second sweep
   over the states: a truncated run therefore never re-pays for work the
   budget already cut off.  Min/max are order-independent, so the
   accumulation is deterministic across job counts. *)
(* Under [?canon] (symmetry reduction) the BFS explores one state per
   orbit, so the raw level lists shrink — but every reported figure is
   recovered exactly: [?size] sums orbit weights (|orbit| per
   representative) instead of counting states, and layer min/max are
   unchanged because |succ| is constant on orbits (the renaming action
   is a bijection commuting with [succ]).  [~symmetry] is stamped into
   checkpoint meta; resuming across a different setting raises
   {!Ckpt.Symmetry_mismatch} — levels of orbit representatives are
   meaningless to the unreduced traversal, and vice versa. *)
let sweep_generic (type a) ~pool ?budget ?ckpt ~name ?canon
    ?(size = List.length) ~symmetry
    ~(succ : a -> a list) ~(layer_size : a -> int) ~(ident : a -> int) ~(x0 : a) ~depth () =
  let cur_min = Atomic.make max_int and cur_max = Atomic.make 0 in
  let rec fold_atomic better a v =
    let c = Atomic.get a in
    if better v c && not (Atomic.compare_and_set a c v) then fold_atomic better a v
  in
  let succ_counted x =
    let l = succ x in
    let n = List.length l in
    fold_atomic ( < ) cur_min n;
    fold_atomic ( > ) cur_max n;
    l
  in
  let harvest () =
    let mn = Atomic.get cur_min and mx = Atomic.get cur_max in
    Atomic.set cur_min max_int;
    Atomic.set cur_max 0;
    ((if mn = max_int then 0 else mn), mx)
  in
  (* [f] sees level d+1 only after level d was fully expanded, so the
     accumulator harvested at that point holds level d's stats. *)
  let sizes = ref [] and stats = ref [] and last_level = ref [] in
  let f level =
    if !sizes <> [] then stats := harvest () :: !stats;
    sizes := size level :: !sizes;
    last_level := level
  in
  (* The snapshot payload carries the frontier's own resume state plus
     this sweep's harvested per-level stats (oldest first), so a resumed
     run reports the same rows without re-expanding the prefix. *)
  let resume : a Frontier.snapshot option =
    match ckpt with
    | Some { dir; resume = true; _ } -> (
        match Ckpt.load_latest ~dir ~name with
        | None -> None
        | Some loaded -> (
            if loaded.Ckpt.meta.Ckpt.symmetry <> symmetry then
              raise
                (Ckpt.Symmetry_mismatch
                   { saved = loaded.Ckpt.meta.Ckpt.symmetry; requested = symmetry });
            if loaded.Ckpt.rejected > 0 then
              Printf.eprintf
                "warning: %s: rolled back past %d corrupt checkpoint \
                 generation%s\n\
                 %!"
                name loaded.Ckpt.rejected
                (if loaded.Ckpt.rejected = 1 then "" else "s");
            match
              (Marshal.from_string loaded.Ckpt.payload 0
                : a Frontier.snapshot * (int * int) list)
            with
            | exception _ -> None
            | snap, harvested ->
                sizes := List.rev_map size snap.Frontier.levels;
                stats := List.rev harvested;
                (match List.rev snap.Frontier.levels with
                | last :: _ -> last_level := last
                | [] -> ());
                (* Re-impose the interrupted run's consumption: caps trip
                   at the same boundary, and a resume cannot buy wall
                   time the original run had already spent.  The prefix's
                   counters merge in exactly (the restart level's
                   expansion was not yet counted at save time). *)
                (match budget with
                | Some b ->
                    Budget.charge b loaded.Ckpt.meta.Ckpt.states_charged;
                    Option.iter
                      (fun remaining_s ->
                        Budget.restrict_deadline b ~remaining_s)
                      loaded.Ckpt.meta.Ckpt.deadline_remaining_s
                | None -> ());
                Stats.merge loaded.Ckpt.meta.Ckpt.stats;
                Some snap))
    | _ -> None
  in
  let checkpoint =
    Option.map
      (fun { dir; every; _ } ->
        {
          Frontier.every;
          save =
            (fun (snap : a Frontier.snapshot) ->
              let payload = Marshal.to_string (snap, List.rev !stats) [] in
              ignore
                (Ckpt.save ~dir ~name
                   ~meta:
                     (Ckpt.make_meta ?budget ~symmetry
                        ~progress:(List.length snap.Frontier.levels)
                        ())
                   ~payload));
        })
      ckpt
  in
  let status =
    Frontier.iter_levels ?budget ?checkpoint ?resume ?canon pool
      ~succ:succ_counted ~ident ~depth ~f x0
  in
  let sizes = Array.of_list (List.rev !sizes) in
  let harvested = Array.of_list (List.rev !stats) in
  let delivered = Array.length sizes in
  (* Stats for the deepest delivered level: a died-out BFS expanded it
     (the accumulator holds its counts); a depth-capped one never did, so
     count its layers with [layer_size], which builds no successor, only
     on a complete sweep.  The pass runs under the traversal's budget: an
     exhaustion there truncates the sweep at [depth], exactly as a sweep
     one level deeper truncates before expanding that level. *)
  let final_stats, status =
    match status with
    | Budget.Truncated _ -> ((0, 0), status)
    | Budget.Complete when delivered < depth + 1 -> (harvest (), status)
    | Budget.Complete -> (
        match Pool.parallel_map ?budget pool layer_size !last_level with
        | counts ->
            ( ( List.fold_left min max_int counts |> (fun m -> if counts = [] then 0 else m),
                List.fold_left max 0 counts ),
              status )
        | exception Budget.Exhausted reason ->
            ((0, 0), Budget.truncated (Option.get budget) ~reason ~at_depth:depth))
  in
  (* A complete sweep reports one row per requested depth (trailing empty
     levels included, exactly as before budgets existed); a truncated one
     reports only the levels whose expansion completed in-budget. *)
  let rows_n =
    match status with
    | Budget.Complete -> depth + 1
    | Budget.Truncated { Budget.at_depth; _ } -> min at_depth (max 0 (delivered - 1))
  in
  let reachable = ref 0 in
  let rows =
    List.map
      (fun d ->
        let size = if d < delivered then sizes.(d) else 0 in
        reachable := !reachable + size;
        let layer_min, layer_max =
          if d < Array.length harvested then harvested.(d)
          else if d = delivered - 1 then final_stats
          else (0, 0)
        in
        { depth = d; reachable = !reachable; layer_min; layer_max })
      (List.init rows_n Fun.id)
  in
  (rows, status)

let run ?pool ?budget ?checkpoint ?(symmetry = false) ~model ~n ~t ~depth () =
  let row = Models.get ~caller:"Sweep.run" model in
  let pool = Option.value pool ~default:Pool.serial in
  let module E = (val row.Models.engine ~t) in
  let inputs = mixed_inputs n in
  (* Symmetry reduction is sound exactly on the rows that declare
     renaming closure (see {!Models.t}); the flag is a no-op elsewhere. *)
  let symmetry = symmetry && row.Models.renaming_closed in
  let canon, size =
    if not symmetry then (None, None)
    else begin
      let roles = Canon.roles_of ~eq:Value.equal inputs in
      ( Some (fun x -> (E.canon ~roles x).Intern.ckey),
        Some (List.fold_left (fun a x -> a + (E.canon ~roles x).Intern.weight) 0) )
    end
  in
  let levels, status =
    sweep_generic ~pool ?budget ?ckpt:checkpoint
      ~name:(checkpoint_name ~model ~n ~t ~depth)
      ?canon ?size ~symmetry ~succ:E.layer ~layer_size:E.layer_size ~ident:E.ident
      ~x0:(E.initial ~inputs) ~depth ()
  in
  { model; n; levels; status }

let pp ppf t =
  Format.fprintf ppf "model=%s n=%d@." t.model t.n;
  Format.fprintf ppf "%8s  %10s  %10s  %10s@." "depth" "reachable" "layer-min" "layer-max";
  List.iter
    (fun l ->
      Format.fprintf ppf "%8d  %10d  %10d  %10d@." l.depth l.reachable l.layer_min
        l.layer_max)
    t.levels;
  match t.status with
  | Budget.Complete -> ()
  | Budget.Truncated tr ->
      Format.fprintf ppf "TRUNCATED: %a; rows above are the completed prefix.@."
        Budget.pp_truncation tr
