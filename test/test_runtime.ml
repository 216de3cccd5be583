(* Unit tests for layered_runtime: domain pool, parallel frontier
   exploration, instrumented counters. *)

open Layered_core
open Layered_runtime

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_parallel_map_order () =
  let xs = List.init 10_000 Fun.id in
  let f x = (x * x) - (3 * x) + 1 in
  let expect = List.map f xs in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (list int))
            (Printf.sprintf "equals List.map at jobs=%d" jobs)
            expect (Pool.parallel_map pool f xs)))
    [ 1; 2; 4 ]

let test_parallel_map_edge_cases () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.parallel_map pool (fun x -> x) []);
      Alcotest.(check (list int)) "singleton" [ 9 ] (Pool.parallel_map pool (fun x -> x * x) [ 3 ]);
      (* fewer elements than jobs *)
      Alcotest.(check (list int)) "short list" [ 2; 4 ] (Pool.parallel_map pool (fun x -> 2 * x) [ 1; 2 ]));
  Alcotest.check_raises "jobs < 1 rejected" (Invalid_argument "Pool.create: jobs must be >= 1")
    (fun () -> ignore (Pool.create ~jobs:0 ()))

let test_parallel_iter () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let hits = Atomic.make 0 in
      Pool.parallel_iter pool (fun x -> ignore (Atomic.fetch_and_add hits x)) (List.init 100 Fun.id);
      check_int "iter visits everything" (99 * 100 / 2) (Atomic.get hits))

let test_parallel_map_exception () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.check_raises "exception propagates" (Failure "boom") (fun () ->
          ignore
            (Pool.parallel_map pool
               (fun x -> if x = 7_777 then failwith "boom" else x)
               (List.init 10_000 Fun.id)));
      (* the pool survives the exception and stays usable *)
      Alcotest.(check (list int)) "pool alive after exception" [ 1; 2; 3 ]
        (Pool.parallel_map pool (fun x -> x) [ 1; 2; 3 ]))

(* A posted task starts on whichever worker is idle.  Two workers: A
   blocks until C starts, B runs to completion on the other worker, and
   C must then start on that idle worker instead of queueing behind A. *)
let test_post_takes_idle_worker () =
  let wait_for flag =
    let deadline = Unix.gettimeofday () +. 5. in
    while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done;
    Atomic.get flag
  in
  let c_started = Atomic.make false and a_saw_c = Atomic.make false in
  let b_done = Atomic.make false in
  Pool.with_pool ~jobs:3 (fun pool ->
      Pool.post pool ~run:(fun () -> Atomic.set a_saw_c (wait_for c_started)) ~fail:ignore;
      Pool.post pool ~run:(fun () -> Atomic.set b_done true) ~fail:ignore;
      check "B finished" true (wait_for b_done);
      Pool.post pool ~run:(fun () -> Atomic.set c_started true) ~fail:ignore);
  check "C started while A still held its worker" true (Atomic.get a_saw_c)

(* Workers are spawned by a pool's first dispatch, which is not a
   respawn; a pool that never dispatched shuts down with nothing to
   join, and a one-job pool has no worker to post to. *)
let test_lazy_spawn () =
  let respawned () = (Stats.snapshot ()).Stats.workers_respawned in
  let before = respawned () in
  Pool.shutdown (Pool.create ~jobs:4 ());
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "first map" [ 2; 3; 4; 5 ]
        (Pool.parallel_map pool succ [ 1; 2; 3; 4 ]));
  let ran = Atomic.make false in
  Pool.with_pool ~jobs:2 (fun pool ->
      Pool.post pool ~run:(fun () -> Atomic.set ran true) ~fail:ignore);
  check "the first post ran" true (Atomic.get ran);
  check_int "first spawns are not respawns" before (respawned ());
  Alcotest.check_raises "post needs a worker"
    (Invalid_argument "Pool.post: a one-job pool has no workers") (fun () ->
      Pool.with_pool ~jobs:1 (fun pool -> Pool.post pool ~run:ignore ~fail:ignore))

(* ------------------------------------------------------------------ *)
(* Frontier vs the string-keyed reference BFS *)

module Oracle = Layered_check.Oracle

let frontier_agrees ~jobs ~name ~succ ~key ~ident ~depth x0 =
  Pool.with_pool ~jobs (fun pool ->
      let serial = Oracle.reachable ~succ ~key ~depth x0 in
      let par = (Frontier.reachable pool ~succ ~ident ~depth x0).Budget.value in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: reachable agrees at jobs=%d" name jobs)
        (List.map key serial) (List.map key par);
      check_int
        (Printf.sprintf "%s: count agrees at jobs=%d" name jobs)
        (List.length (Oracle.reachable ~succ ~key ~depth x0))
        (Frontier.count_reachable pool ~succ ~ident ~depth x0).Budget.value)

let test_frontier_sync_floodset () =
  let module P = (val Layered_protocols.Sync_floodset.make ~t:1) in
  let module E = Layered_sync.Engine.Make (P) in
  let x0 = E.initial ~inputs:[| 0; 1; 1 |] in
  List.iter
    (fun jobs ->
      frontier_agrees ~jobs ~name:"S^t floodset (3,1)" ~succ:(E.layer (E.st ~t:1)) ~key:E.key
        ~ident:E.ident ~depth:3 x0)
    [ 1; 2; 4 ]

let test_frontier_mobile () =
  let module P = (val Layered_protocols.Sync_floodset.make ~t:1) in
  let module E = Layered_sync.Engine.Make (P) in
  let x0 = E.initial ~inputs:[| 0; 1; 1 |] in
  List.iter
    (fun jobs ->
      frontier_agrees ~jobs ~name:"S1 mobile (3,1)"
        ~succ:(E.layer E.s1) ~key:E.key ~ident:E.ident ~depth:3 x0)
    [ 1; 2; 4 ]

let test_frontier_exists () =
  let module P = (val Layered_protocols.Sync_floodset.make ~t:1) in
  let module E = Layered_sync.Engine.Make (P) in
  let x0 = E.initial ~inputs:[| 0; 1; 1 |] in
  let succ = E.layer (E.st ~t:1) in
  Pool.with_pool ~jobs:4 (fun pool ->
      check "terminal state reachable at depth 3" true
        (Frontier.exists_reachable pool ~succ ~ident:E.ident ~depth:3 ~pred:E.terminal x0)
          .Budget.value;
      check "none at depth 0" false
        (Frontier.exists_reachable pool ~succ ~ident:E.ident ~depth:0 ~pred:E.terminal x0)
          .Budget.value;
      check "agrees with the reference"
        (List.exists E.terminal (Oracle.reachable ~succ ~key:E.key ~depth:2 x0))
        (Frontier.exists_reachable pool ~succ ~ident:E.ident ~depth:2 ~pred:E.terminal x0)
          .Budget.value)

(* Levels partition the reachable set by first-reached depth. *)
let test_frontier_levels () =
  let succ x = if x >= 16 then [] else [ (2 * x) mod 19; ((2 * x) + 1) mod 19 ] in
  let key = string_of_int in
  Pool.with_pool ~jobs:2 (fun pool ->
      let levels = (Frontier.levels pool ~succ ~ident:Fun.id ~depth:6 1).Budget.value in
      let flat = List.concat levels in
      Alcotest.(check (list string))
        "concat levels = reachable"
        (List.map key (Oracle.reachable ~succ ~key ~depth:6 1))
        (List.map key flat);
      let sorted = List.sort_uniq compare flat in
      check_int "levels are disjoint" (List.length flat) (List.length sorted))

(* An exception in the successor function must come back to the caller
   without wedging the pool (satellite requirement (d)). *)
let test_frontier_exception () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let succ x = if x = 5 then failwith "bad succ" else if x < 40 then [ x + 1; x + 2 ] else [] in
      Alcotest.check_raises "succ exception propagates" (Failure "bad succ") (fun () ->
          ignore (Frontier.reachable pool ~succ ~ident:Fun.id ~depth:10 0));
      (* same pool still works afterwards *)
      check_int "pool alive" 3
        (Frontier.count_reachable pool ~succ:(fun x -> if x < 2 then [ x + 1 ] else [])
           ~ident:Fun.id ~depth:5 0)
          .Budget.value)

(* ------------------------------------------------------------------ *)
(* The first-seen pass: the frontier's dedup over one level's candidates. *)

let test_first_seen_first_wins () =
  let claimed = Hashtbl.create 8 in
  Alcotest.(check (list string))
    "the first candidate of each id is kept, in candidate order" [ "a"; "b"; "d" ]
    (Frontier.first_seen claimed [| 5; 3; 5; 9; 3 |] [| "a"; "b"; "c"; "d"; "e" |]);
  Alcotest.(check (list int)) "every kept id is claimed" [ 3; 5; 9 ]
    (List.sort compare (List.of_seq (Hashtbl.to_seq_keys claimed)))

let test_first_seen_never_reclaimed () =
  let claimed = Hashtbl.create 8 in
  Hashtbl.replace claimed 7 ();
  Alcotest.(check (list string)) "an earlier level's claim is final" [ "c" ]
    (Frontier.first_seen claimed [| 7; 7; 8 |] [| "a"; "b"; "c" |]);
  Alcotest.(check (list string)) "so is this level's" []
    (Frontier.first_seen claimed [| 8; 7; 8 |] [| "d"; "e"; "f" |])

(* Ids computed in a pooled pass, candidates colliding heavily: the
   winners, and the levels of a whole traversal, are the same at every
   job count. *)
let test_first_seen_jobs_invariant () =
  let cands = Array.init 400 (fun i -> (i * 7919) mod 1009) in
  let succ x = if x >= 500 then [] else [ ((3 * x) + 1) mod 601; (x + 7) mod 601 ] in
  let run jobs =
    Pool.with_pool ~jobs (fun pool ->
        let ids = Array.of_list (Pool.parallel_map pool (fun c -> c mod 37) (Array.to_list cands)) in
        ( Frontier.first_seen (Hashtbl.create 64) ids cands,
          (Frontier.levels pool ~succ ~ident:Fun.id ~depth:20 1).Budget.value ))
  in
  let winners, levels = run 1 in
  check_int "one winner per distinct id" 37 (List.length winners);
  List.iter
    (fun jobs ->
      let w, l = run jobs in
      Alcotest.(check (list int)) (Printf.sprintf "winners at jobs=%d" jobs) winners w;
      Alcotest.(check (list (list int))) (Printf.sprintf "levels at jobs=%d" jobs) levels l)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Budgets *)

(* A deadline expiring mid-BFS yields [Truncated], and the delivered
   levels are exactly a prefix of the serial (unbudgeted) level
   sequence.  The sleeping successor makes truncation certain: the full
   graph costs > 200ms of mandatory sleep against a 50ms budget. *)
let test_budget_deadline_prefix () =
  let succ_pure x = if x >= 200 then [] else [ (2 * x) mod 211; ((2 * x) + 1) mod 211 ] in
  let succ_slow x =
    Unix.sleepf 0.001;
    succ_pure x
  in
  let key = string_of_int in
  let serial =
    Pool.with_pool ~jobs:1 (fun pool ->
        (Frontier.levels pool ~succ:succ_pure ~ident:Fun.id ~depth:12 1).Budget.value)
  in
  Pool.with_pool ~jobs:2 (fun pool ->
      let b = Budget.create ~timeout_s:0.05 () in
      let o = Frontier.levels ~budget:b pool ~succ:succ_slow ~ident:Fun.id ~depth:12 1 in
      (match o.Budget.status with
      | Budget.Truncated { Budget.reason = Budget.Deadline; _ } -> ()
      | Budget.Truncated _ -> Alcotest.fail "truncated for the wrong reason"
      | Budget.Complete -> Alcotest.fail "expected a Deadline truncation");
      let got = o.Budget.value in
      check "delivered fewer levels than the serial run" true
        (List.length got < List.length serial);
      List.iteri
        (fun i level ->
          Alcotest.(check (list string))
            (Printf.sprintf "level %d equals the serial level" i)
            (List.map key (List.nth serial i))
            (List.map key level))
        got)

(* The states cap is enforced at level boundaries against de-duplicated
   counts, so the truncation point — levels, reason, depth and the
   charged total — is identical for every job count. *)
let test_budget_max_states_deterministic () =
  let succ x = if x >= 500 then [] else [ ((3 * x) + 1) mod 601; (x + 7) mod 601 ] in
  let key = string_of_int in
  let run jobs =
    Pool.with_pool ~jobs (fun pool ->
        let b = Budget.create ~max_states:40 () in
        let o = Frontier.levels ~budget:b pool ~succ ~ident:Fun.id ~depth:20 1 in
        (List.map (List.map key) o.Budget.value, o.Budget.status))
  in
  let ref_levels, ref_status = run 1 in
  (match ref_status with
  | Budget.Truncated { Budget.reason = Budget.States; _ } -> ()
  | _ -> Alcotest.fail "expected a States truncation");
  List.iter
    (fun jobs ->
      let levels, status = run jobs in
      Alcotest.(check (list (list string)))
        (Printf.sprintf "levels identical at jobs=%d" jobs)
        ref_levels levels;
      check (Printf.sprintf "status identical at jobs=%d" jobs) true
        (status = ref_status))
    [ 2; 4 ]

(* Cancelling the token mid-map surfaces [Exhausted Interrupted] through
   the usual settle-then-reraise path: no deadlock, and the pool stays
   usable. *)
let test_budget_cancel_parallel_map () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let b = Budget.create () in
      let interrupted = ref false in
      (try
         ignore
           (Pool.parallel_map ~budget:b pool
              (fun x ->
                if x = 100 then Budget.cancel b;
                x)
              (List.init 10_000 Fun.id))
       with Budget.Exhausted Budget.Interrupted -> interrupted := true);
      check "Exhausted Interrupted raised" true !interrupted;
      Alcotest.(check (list int))
        "pool alive after cancellation" [ 1; 2; 3 ]
        (Pool.parallel_map pool (fun x -> x) [ 1; 2; 3 ]))

(* A budget generous enough never to trip must be invisible: Complete
   status and results identical to the reference BFS, at every job
   count. *)
let test_budget_complete_identical () =
  let module P = (val Layered_protocols.Sync_floodset.make ~t:1) in
  let module E = Layered_sync.Engine.Make (P) in
  let x0 = E.initial ~inputs:[| 0; 1; 1 |] in
  let succ = E.layer (E.st ~t:1) and key = E.key in
  let serial = Oracle.reachable ~succ ~key ~depth:3 x0 in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let b =
            Budget.create ~timeout_s:3600.0 ~max_states:1_000_000
              ~max_memory_mb:65536 ()
          in
          let o = Frontier.reachable ~budget:b pool ~succ ~ident:E.ident ~depth:3 x0 in
          check
            (Printf.sprintf "complete at jobs=%d" jobs)
            true
            (o.Budget.status = Budget.Complete);
          Alcotest.(check (list string))
            (Printf.sprintf "identical to the reference at jobs=%d" jobs)
            (List.map key serial)
            (List.map key o.Budget.value)))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Stats *)

let le_snapshot (a : Stats.snapshot) (b : Stats.snapshot) =
  a.Stats.states_expanded <= b.Stats.states_expanded
  && a.Stats.dedup_hits <= b.Stats.dedup_hits
  && a.Stats.valence_cache_hits <= b.Stats.valence_cache_hits
  && a.Stats.valence_cache_misses <= b.Stats.valence_cache_misses
  && a.Stats.tasks_executed <= b.Stats.tasks_executed

let is_zero (s : Stats.snapshot) =
  s.Stats.states_expanded = 0 && s.Stats.dedup_hits = 0
  && s.Stats.valence_cache_hits = 0 && s.Stats.valence_cache_misses = 0
  && s.Stats.tasks_executed = 0 && s.Stats.domains_utilised = 0

let test_stats_monotone_and_reset () =
  Stats.reset ();
  check "zero after reset" true (is_zero (Stats.snapshot ()));
  (* a diamond: 0 -> {1,2} -> 3, so the BFS both expands and dedups *)
  let succ x = if x = 0 then [ 1; 2 ] else if x < 3 then [ 3 ] else [] in
  ignore (Frontier.reachable Pool.serial ~succ ~ident:Fun.id ~depth:3 0);
  let s1 = Stats.snapshot () in
  check "frontier counted expansions" true (s1.Stats.states_expanded >= 4);
  check "frontier counted the dedup hit" true (s1.Stats.dedup_hits >= 1);
  (* a memoised valence engine: the second classify must hit the cache *)
  let vspec =
    {
      Valence.succ;
      ident = Fun.id;
      decided = (fun x -> if x = 3 then Vset.singleton 1 else Vset.empty);
      terminal = (fun x -> x = 3);
    }
  in
  let v = Valence.create vspec in
  ignore (Valence.classify v ~depth:3 0);
  ignore (Valence.classify v ~depth:3 0);
  let s2 = Stats.snapshot () in
  check "valence misses counted" true (s2.Stats.valence_cache_misses >= 1);
  check "valence hits counted" true (s2.Stats.valence_cache_hits >= 1);
  check "counters are monotone" true (le_snapshot s1 s2);
  Pool.with_pool ~jobs:2 (fun pool ->
      ignore (Pool.parallel_map pool (fun x -> x) (List.init 64 Fun.id)));
  let s3 = Stats.snapshot () in
  check "tasks counted" true (s3.Stats.tasks_executed > s2.Stats.tasks_executed);
  check "monotone again" true (le_snapshot s2 s3);
  check "parallel run utilised >1 domain" true (s3.Stats.domains_utilised > 1);
  Stats.reset ();
  check "zero after final reset" true (is_zero (Stats.snapshot ()))

(* ------------------------------------------------------------------ *)
(* Memory watermarks: the hard cap trips sticky (after spending one
   compaction), the soft watermark compacts at every level boundary
   without changing any traversal's answer or snapshot, and a tripped
   budget never memoises cut valence nodes. *)

(* ~16 MB of live unboxed ints: compaction cannot shrink a live array,
   so an 8 MB cap must trip — and stay tripped — however often it is
   probed afterwards. *)
let test_memory_hard_trip_sticky () =
  let b = Budget.create ~max_memory_mb:8 () in
  let ballast = Array.init (2 * 1024 * 1024) Fun.id in
  let before = (Stats.snapshot ()).Stats.gc_compactions in
  let seen = ref None in
  (* the watermark is sampled every 64th probe *)
  for _ = 1 to 256 do
    match Budget.exceeded b with
    | Some r when !seen = None -> seen := Some r
    | _ -> ()
  done;
  check "tripped on Memory" true (!seen = Some Budget.Memory);
  check "trip is sticky" true (Budget.tripped b = Some Budget.Memory);
  check "still exceeded on re-probe" true
    (Budget.exceeded b = Some Budget.Memory);
  let after = (Stats.snapshot ()).Stats.gc_compactions in
  check_int "exactly one compaction spent before tripping" 1 (after - before);
  (* a fresh generous budget on the same heap must not trip: the cap,
     not the probe, decides *)
  let generous = Budget.create ~max_memory_mb:65536 () in
  for _ = 1 to 256 do
    check "generous cap never trips" true (Budget.exceeded generous = None)
  done;
  ignore (Sys.opaque_identity ballast)

(* The soft watermark's workload: the same ~16 MB of live ballast over
   an 8 MB soft watermark, so every level boundary of a traversal of this
   eight-level DAG finds the heap above it.  [soft_jobs f] runs [f] at
   jobs 1 and 4 with the ballast held live. *)
let soft_succ x = if x >= 120 then [] else [ x + 1; x + 2; x + 3 ]
let soft_depth = 8
let soft_budget () = Budget.create ~soft_memory_mb:8 ()

let soft_jobs f =
  let ballast = Array.init (2 * 1024 * 1024) Fun.id in
  List.iter (fun jobs -> Pool.with_pool ~jobs (f ~jobs)) [ 1; 4 ];
  ignore (Sys.opaque_identity ballast)

(* Each boundary counts a soft event and compacts (the budget's one
   compaction and a second one at the first boundary, one at every later
   boundary); the levels stay those of an unbudgeted run. *)
let test_memory_soft_every_boundary () =
  soft_jobs (fun ~jobs pool ->
      let levels ?budget () =
        Frontier.levels ?budget pool ~succ:soft_succ ~ident:Fun.id
          ~depth:soft_depth 0
      in
      let reference = levels () in
      let budget = soft_budget () in
      let before = Stats.snapshot () in
      let o = levels ~budget () in
      let d = Stats.diff (Stats.snapshot ()) before in
      let boundaries = List.length o.Budget.value - 1 in
      check "at least five level boundaries" true (boundaries >= 5);
      check_int "one soft event per level boundary" boundaries
        d.Stats.mem_soft_events;
      check_int "the budget's compaction plus one per boundary"
        (boundaries + 1) d.Stats.gc_compactions;
      check "complete" true (o.Budget.status = Budget.Complete);
      check "never trips" true (Budget.tripped budget = None);
      Alcotest.(check (list (list int)))
        (Printf.sprintf "levels of the unbudgeted run at jobs=%d" jobs)
        reference.Budget.value o.Budget.value)

(* The other traversals bite at the same boundaries, and their answers —
   the reachable set, its size, a found and a missed witness — are those
   of an unbudgeted run. *)
let test_frontier_soft_answers () =
  soft_jobs (fun ~jobs pool ->
      let same name run =
        let reference = run None in
        let before = Stats.snapshot () in
        let o = run (Some (soft_budget ())) in
        let d = Stats.diff (Stats.snapshot ()) before in
        let at = Printf.sprintf "%s at jobs=%d" name jobs in
        check (at ^ ": the watermark bit") true (d.Stats.mem_soft_events > 0);
        check (at ^ ": the unbudgeted answer") true (o = reference);
        o
      in
      let exists pred budget =
        Frontier.exists_reachable ?budget pool ~succ:soft_succ ~ident:Fun.id
          ~depth:soft_depth ~pred 0
      in
      ignore
        (same "reachable" (fun budget ->
             Frontier.reachable ?budget pool ~succ:soft_succ ~ident:Fun.id
               ~depth:soft_depth 0));
      ignore
        (same "count_reachable" (fun budget ->
             Frontier.count_reachable ?budget pool ~succ:soft_succ
               ~ident:Fun.id ~depth:soft_depth 0));
      let found = same "exists_reachable 17" (exists (( = ) 17)) in
      let missed = same "exists_reachable 100" (exists (( = ) 100)) in
      check "17 is found" true found.Budget.value;
      check "100 is missed" false missed.Budget.value)

(* Snapshots cut every two levels, and the final flush, are those of an
   unbudgeted run: a boundary compacts after its snapshot is cut, and a
   compaction drops no state. *)
let test_frontier_soft_snapshots () =
  soft_jobs (fun ~jobs pool ->
      let run budget =
        let snaps = ref [] in
        let save (snap : int Frontier.snapshot) =
          snaps := snap.Frontier.levels :: !snaps
        in
        let o =
          Frontier.levels ?budget ~checkpoint:{ Frontier.every = 2; save } pool
            ~succ:soft_succ ~ident:Fun.id ~depth:soft_depth 0
        in
        check "complete" true (o.Budget.status = Budget.Complete);
        List.rev !snaps
      in
      let reference = run None in
      let before = Stats.snapshot () in
      let snaps = run (Some (soft_budget ())) in
      let d = Stats.diff (Stats.snapshot ()) before in
      check "the watermark bit" true (d.Stats.mem_soft_events > 0);
      check "at least three snapshots" true (List.length reference >= 3);
      check
        (Printf.sprintf "snapshots of the unbudgeted run at jobs=%d" jobs)
        true (snaps = reference))

let test_budget_create_validation () =
  Alcotest.check_raises "soft_memory_mb must be >= 1"
    (Invalid_argument "Budget.create: soft_memory_mb must be >= 1") (fun () ->
      ignore (Budget.create ~soft_memory_mb:0 ()))

(* A tripped budget degrades valence outcomes to incomplete and must
   not memoise them: a later untripped engine would otherwise inherit
   Unknown verdicts for nodes the budget — not the depth — cut. *)
let test_valence_no_memo_when_tripped () =
  let open Layered_core in
  let vspec =
    {
      Valence.succ = (fun x -> if x < 3 then [ x + 1 ] else []);
      ident = Fun.id;
      decided = (fun x -> if x = 3 then Vset.singleton 1 else Vset.empty);
      terminal = (fun x -> x = 3);
    }
  in
  let b = Budget.create () in
  Budget.cancel b;
  check "budget is tripped" true (Budget.exceeded b <> None);
  let v = Valence.create ~budget:b vspec in
  let o = Valence.outcome v ~depth:5 0 in
  check "cut outcome is incomplete" true (not o.Valence.complete);
  check_int "nothing memoised under a tripped budget" 0 (Valence.cache_entries v);
  (* the same engine, budget lifted, classifies from scratch: complete *)
  Valence.set_budget v None;
  let o2 = Valence.outcome v ~depth:5 0 in
  check "untripped walk is complete" true o2.Valence.complete;
  check "cache filled once the budget no longer cuts" true
    (Valence.cache_entries v > 0)

(* ------------------------------------------------------------------ *)
(* Crash containment (chaos regression) *)

(* A crash raised in a worker domain around its task — the injected
   [Worker_raise] fault — must surface from [parallel_map] instead of
   wedging it, must not cost the slot, and the dead domain must be
   respawned on the next dispatch.  Three maps at jobs=2 dispatch three
   worker tasks, covering every seed-derived firing index. *)
let test_worker_raise_contained () =
  let before = (Stats.snapshot ()).Stats.workers_respawned in
  Fault.arm ~seed:2026 Fault.Worker_raise;
  Fun.protect ~finally:Fault.disarm (fun () ->
      Pool.with_pool ~jobs:2 (fun pool ->
          let xs = List.init 64 Fun.id in
          let expect = List.map (fun x -> x * 7) xs in
          let raised = ref 0 in
          for _ = 1 to 3 do
            match Pool.parallel_map pool (fun x -> x * 7) xs with
            | got -> check "clean pass computes the right list" true (got = expect)
            | exception Fault.Injected Fault.Worker_raise -> incr raised
          done;
          check_int "the injected crash surfaced exactly once" 1 !raised;
          check_int "the fault fired exactly once" 1 (Fault.fired ());
          Alcotest.(check (list int)) "pool usable after the crash" [ 2; 3; 4 ]
            (Pool.parallel_map pool (fun x -> x + 1) [ 1; 2; 3 ])));
  let after = (Stats.snapshot ()).Stats.workers_respawned in
  check "the dead worker domain was respawned" true (after > before)

(* Budgeted [with_pool] installs a SIGINT-to-cancel handler; nested and
   repeated uses must restore the caller's handler on the way out, not
   each other's. *)
let test_with_pool_sigint_restore () =
  let prev = Sys.signal Sys.sigint Sys.Signal_ignore in
  Pool.with_pool ~jobs:2 ~budget:(Budget.create ()) (fun _ ->
      Pool.with_pool ~jobs:2 ~budget:(Budget.create ()) (fun _ -> ()));
  Pool.with_pool ~jobs:2 ~budget:(Budget.create ()) (fun _ -> ());
  let observed = Sys.signal Sys.sigint prev in
  check "handler restored after nested and repeated budgeted with_pool" true
    (observed = Sys.Signal_ignore)

let () =
  Alcotest.run "layered_runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_map order" `Quick test_parallel_map_order;
          Alcotest.test_case "edge cases" `Quick test_parallel_map_edge_cases;
          Alcotest.test_case "parallel_iter" `Quick test_parallel_iter;
          Alcotest.test_case "exception propagation" `Quick test_parallel_map_exception;
          Alcotest.test_case "post takes any idle worker" `Quick test_post_takes_idle_worker;
          Alcotest.test_case "workers spawn at first dispatch" `Quick test_lazy_spawn;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "sync floodset" `Quick test_frontier_sync_floodset;
          Alcotest.test_case "mobile substrate" `Quick test_frontier_mobile;
          Alcotest.test_case "exists_reachable" `Quick test_frontier_exists;
          Alcotest.test_case "levels partition" `Quick test_frontier_levels;
          Alcotest.test_case "exception propagation" `Quick test_frontier_exception;
          Alcotest.test_case "mem-soft answers = unbudgeted" `Quick
            test_frontier_soft_answers;
          Alcotest.test_case "snapshots identical under mem-soft" `Quick
            test_frontier_soft_snapshots;
        ] );
      ( "first-seen",
        [
          Alcotest.test_case "first candidate wins" `Quick test_first_seen_first_wins;
          Alcotest.test_case "claimed id never reclaimed" `Quick
            test_first_seen_never_reclaimed;
          Alcotest.test_case "winners identical across job counts" `Quick
            test_first_seen_jobs_invariant;
        ] );
      ( "budget",
        [
          Alcotest.test_case "deadline truncates to a serial prefix" `Quick
            test_budget_deadline_prefix;
          Alcotest.test_case "max-states deterministic across jobs" `Quick
            test_budget_max_states_deterministic;
          Alcotest.test_case "cancellation drains parallel_map" `Quick
            test_budget_cancel_parallel_map;
          Alcotest.test_case "generous budget is invisible" `Quick
            test_budget_complete_identical;
          Alcotest.test_case "memory hard trip is sticky" `Quick
            test_memory_hard_trip_sticky;
          Alcotest.test_case "soft watermark bites per level" `Quick
            test_memory_soft_every_boundary;
          Alcotest.test_case "create validation" `Quick
            test_budget_create_validation;
          Alcotest.test_case "no memoisation of cut valence nodes" `Quick
            test_valence_no_memo_when_tripped;
        ] );
      ( "stats",
        [ Alcotest.test_case "monotone and reset" `Quick test_stats_monotone_and_reset ] );
      ( "containment",
        [
          Alcotest.test_case "worker crash contained and respawned" `Quick
            test_worker_raise_contained;
          Alcotest.test_case "SIGINT handler restored" `Quick
            test_with_pool_sigint_restore;
        ] );
    ]
