(* Integration tests: every experiment driver must reproduce its paper
   claims (all rows Pass or Info), and the registry must be consistent. *)

open Layered_core
open Layered_analysis

let check = Alcotest.(check bool)

(* Keep in sync with DESIGN.md's experiment index. *)
let expected_experiment_count = 20

let test_registry_ids () =
  let ids = List.map (fun (e : Registry.experiment) -> e.Registry.id) Registry.all in
  check "experiment count" true (List.length ids = expected_experiment_count);
  check "ids unique" true (List.length (List.sort_uniq compare ids) = List.length ids);
  check "lookup case-insensitive" true (Registry.find "e7" <> None);
  check "unknown id" true (Registry.find "E99" = None)

let experiment_case (e : Registry.experiment) =
  let run () =
    let rows = e.Registry.run () in
    check (e.Registry.id ^ " produced rows") true (rows <> []);
    List.iter
      (fun (r : Report.row) ->
        check
          (Printf.sprintf "%s %s (%s)" r.Report.id r.Report.claim r.Report.params)
          true
          (r.Report.status <> Report.Fail))
      rows
  in
  let speed = if List.mem e.Registry.id [ "E7"; "E8" ] then `Slow else `Quick in
  Alcotest.test_case e.Registry.id speed run

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_sweep () =
  List.iter
    (fun model ->
      let s = Sweep.run ~model ~n:3 ~t:1 ~depth:1 () in
      match s.Sweep.levels with
      | [ l0; l1 ] ->
          check (model ^ " depth 0 is one state") true (l0.Sweep.reachable = 1);
          check (model ^ " layers grow the space") true (l1.Sweep.reachable > 1);
          check (model ^ " layer sizes sane") true
            (l1.Sweep.layer_min >= 1 && l1.Sweep.layer_max >= l1.Sweep.layer_min)
      | _ -> Alcotest.fail "expected two levels")
    Models.names;
  Alcotest.check_raises "unknown model"
    (Invalid_argument "Sweep.run: unknown model \"nope\"") (fun () ->
      ignore (Sweep.run ~model:"nope" ~n:3 ~t:1 ~depth:1 ()))

(* A sweep counts its last level's layers without building them
   ([layer_size]) and harvests every other level's while expanding it: a
   depth-d sweep's last row must be row d of the depth-(d + 1) sweep.
   No layering interns a successor, so the sweep interns exactly the
   states it reaches. *)
let test_sweep_last_row () =
  let module Stats = Layered_runtime.Stats in
  List.iter
    (fun model ->
      List.iter
        (fun depth ->
          let what = Printf.sprintf "%s depth %d" model depth in
          let before = Stats.snapshot () in
          let rows = (Sweep.run ~model ~n:3 ~t:1 ~depth ()).Sweep.levels in
          let interned = (Stats.diff (Stats.snapshot ()) before).Stats.interned_states in
          let last = List.nth rows depth in
          check (what ^ ": interned = reachable") true (interned = last.Sweep.reachable);
          check what true
            (last = List.nth (Sweep.run ~model ~n:3 ~t:1 ~depth:(depth + 1) ()).Sweep.levels depth))
        [ 1; 2 ])
    Models.names

module Budget = Layered_runtime.Budget

(* A budgeted sweep reports the completed level prefix of the unbudgeted
   run, flagged Truncated; a generous budget changes nothing. *)
let test_sweep_budget () =
  let full = Sweep.run ~model:"sync" ~n:4 ~t:1 ~depth:3 () in
  check "unbudgeted run is Complete" true (full.Sweep.status = Budget.Complete);
  let capped =
    Sweep.run ~budget:(Budget.create ~max_states:5 ()) ~model:"sync" ~n:4 ~t:1 ~depth:3
      ()
  in
  (match capped.Sweep.status with
  | Budget.Truncated { Budget.reason = Budget.States; _ } -> ()
  | _ -> Alcotest.fail "expected a States truncation");
  check "truncated rows are a strict prefix" true
    (List.length capped.Sweep.levels < List.length full.Sweep.levels);
  List.iteri
    (fun i (l : Sweep.level) -> check "prefix row matches" true (l = List.nth full.Sweep.levels i))
    capped.Sweep.levels;
  let generous =
    Sweep.run ~budget:(Budget.create ~max_states:10_000_000 ()) ~model:"sync" ~n:4 ~t:1
      ~depth:3 ()
  in
  check "generous budget is invisible" true
    (generous.Sweep.levels = full.Sweep.levels
    && generous.Sweep.status = Budget.Complete)

(* The last level's layer sizes are computed under the sweep's budget: a
   cap the traversal already exceeded truncates a depth-2 sweep there,
   exactly as it truncates the depth-3 sweep before expanding level 2. *)
let test_sweep_budget_last_level () =
  let capped depth =
    let s =
      Sweep.run ~budget:(Budget.create ~max_states:100 ()) ~model:"mp" ~n:4 ~t:1 ~depth ()
    in
    check (Printf.sprintf "depth %d truncated" depth) true (s.Sweep.status <> Budget.Complete);
    Format.asprintf "%a" Sweep.pp s
  in
  Alcotest.(check string) "capped depth 2 prints the capped depth 3" (capped 3) (capped 2)

(* Budgeted checkers stop early and say so; verdict booleans cover the
   explored prefix only. *)
let test_checker_budget () =
  let protocol = Layered_protocols.Sync_floodset.make ~t:1 in
  let full = Consensus_check.check ~protocol ~failures:Crash ~n:3 ~t:1 ~rounds:3 () in
  check "unbudgeted check is Complete" true
    (full.Consensus_check.status = Budget.Complete);
  let capped =
    Consensus_check.check ~protocol ~failures:Crash ~n:3 ~t:1 ~rounds:3
      ~budget:(Budget.create ~max_states:10 ()) ()
  in
  (match capped.Consensus_check.status with
  | Budget.Truncated { Budget.reason = Budget.States; states_seen; _ } ->
      check "stopped near the cap" true (states_seen < full.Consensus_check.states_explored)
  | _ -> Alcotest.fail "expected a States truncation");
  check "explored fewer states" true
    (capped.Consensus_check.states_explored < full.Consensus_check.states_explored);
  let o =
    Consensus_check.check ~protocol ~failures:Omission ~n:3 ~t:1 ~rounds:3 ~max_new:1
      ~budget:(Budget.create ~max_states:10 ()) ()
  in
  check "omission checker truncates too" true (o.Consensus_check.status <> Budget.Complete)

(* The omission checker's budget-status paths, mirroring the consensus
   ones: Complete on an unbudgeted run, a States truncation charged per
   explored state under a tight cap, and a generous budget changing
   nothing at all. *)
let test_omission_budget_paths () =
  let protocol = Layered_protocols.Sync_coordinator.make ~t:1 in
  let check_omission ?budget () =
    Consensus_check.check ~protocol ~failures:Omission ~n:3 ~t:1 ~rounds:6 ~max_new:1
      ?budget ()
  in
  let full = check_omission () in
  check "unbudgeted omission check is Complete" true
    (full.Consensus_check.status = Budget.Complete);
  check "coordinator verdicts hold" true
    (full.agreement_ok && full.validity_ok && full.termination_ok);
  let capped = check_omission ~budget:(Budget.create ~max_states:10 ()) () in
  (match capped.status with
  | Budget.Truncated { Budget.reason = Budget.States; states_seen; _ } ->
      check "charged per state: the trip lands at the cap, not far past it" true
        (states_seen >= 10 && states_seen < full.states_explored);
      check "truncated run explored a proper subset" true
        (capped.states_explored < full.states_explored)
  | Budget.Truncated _ -> Alcotest.fail "expected a States truncation"
  | Budget.Complete -> Alcotest.fail "max_states=10 failed to truncate");
  let generous = check_omission ~budget:(Budget.create ~max_states:1_000_000 ()) () in
  check "generous budget is invisible" true
    (generous.status = Budget.Complete
    && generous.states_explored = full.states_explored
    && generous.agreement_ok = full.agreement_ok
    && generous.worst_decision_round = full.worst_decision_round)

(* The checker's exact verdict line for each failure model: an
   adversary that reaches a different state set changes the state
   count, which no other test pins. *)
let test_checker_pinned () =
  List.iter
    (fun (failures, name, protocol, rounds, max_new, expected) ->
      let r = Consensus_check.check ~protocol ~failures ~n:3 ~t:1 ~rounds ~max_new () in
      Alcotest.(check string)
        name expected
        (Format.asprintf "%a" Consensus_check.pp_result r))
    Layered_protocols.
      [
        ( Consensus_check.Crash, "crash floodset", Sync_floodset.make ~t:1, 3, 2,
          "agreement=true uniform=false validity=true termination=true worst-round=2 \
           states=134" );
        ( Crash, "crash clean", Sync_clean.make ~t:1, 3, 2,
          "agreement=true uniform=false validity=true termination=true worst-round=2 \
           states=332" );
        ( Omission, "omission floodset", Sync_floodset.make ~t:1, 3, 1,
          "agreement=false validity=true termination=true worst-round=2 states=167" );
        ( Omission, "omission coordinator", Sync_coordinator.make ~t:1, 7, 1,
          "agreement=true validity=true termination=true worst-round=6 states=412" );
        ( General_omission, "general coordinator", Sync_coordinator.make ~t:1, 7, 1,
          "agreement=true validity=true termination=true worst-round=6 states=967" );
      ]

(* A raising experiment becomes a Fail row carrying the exception text;
   the other experiments still report. *)
let test_registry_exception_row () =
  let boom =
    { Registry.id = "EX"; title = "deliberately failing"; run = (fun () -> failwith "kaboom") }
  in
  let ok =
    {
      Registry.id = "EOK";
      title = "fine";
      run =
        (fun () ->
          [
            Report.row ~id:"EOK" ~claim:"c" ~params:"" ~expected:"x" ~measured:"x"
              Report.Pass;
          ]);
    }
  in
  let results = Registry.run_all [ boom; ok ] in
  check "both experiments report" true (List.length results = 2);
  (match results with
  | [ (_, [ row ]); (_, ok_rows) ] ->
      check "failing experiment yields a Fail row" true (row.Report.status = Report.Fail);
      check "row carries the exception text" true
        (contains row.Report.measured "kaboom");
      check "healthy experiment unaffected" true (Report.all_pass ok_rows)
  | _ -> Alcotest.fail "unexpected result shape");
  (* an exhausted budget skips not-yet-started experiments with Info rows *)
  let b = Budget.create () in
  Budget.cancel b;
  match Registry.run_all ~budget:b [ ok ] with
  | [ (_, [ row ]) ] ->
      check "skipped row is Info" true (row.Report.status = Report.Info);
      check "skipped row says why" true (contains row.Report.measured "interrupted")
  | _ -> Alcotest.fail "expected one skipped row"

module RtStats = Layered_runtime.Stats
module Pool = Layered_runtime.Pool
module Fault = Layered_runtime.Fault

let with_tmp_dir = Layered_check.Oracle.with_tmp_dir

let pass_row id =
  Report.row ~id ~claim:"c" ~params:"" ~expected:"x" ~measured:"x" Report.Pass

(* The one retry of a raising experiment runs on the caller domain,
   outside the pool — a poisoned worker cannot fail it a second time. *)
let test_registry_retry_on_caller_domain () =
  let attempts = Atomic.make [] in
  let note () =
    let rec go () =
      let cur = Atomic.get attempts in
      if not (Atomic.compare_and_set attempts cur (Domain.self () :: cur)) then go ()
    in
    go ()
  in
  let flaky =
    {
      Registry.id = "EFLAKY";
      title = "raises on its first attempt";
      run =
        (fun () ->
          note ();
          if List.length (Atomic.get attempts) = 1 then failwith "flaky-once";
          [ pass_row "EFLAKY" ]);
    }
  in
  Pool.with_pool ~jobs:2 (fun pool ->
      match Registry.run_all ~pool [ flaky ] with
      | [ (_, [ pass; info ]) ] ->
          check "retry produced the Pass row" true (pass.Report.status = Report.Pass);
          check "Info row credits the out-of-pool rerun" true
            (info.Report.status = Report.Info
            && contains info.Report.measured "outside the pool");
          (match List.rev (Atomic.get attempts) with
          | [ _; second ] ->
              check "the retry ran on the caller domain" true (second = Domain.self ())
          | _ -> Alcotest.fail "expected exactly two attempts")
      | _ -> Alcotest.fail "expected one Pass plus one recovery Info row")

(* An injected worker crash mid-map must not cost any experiment its
   rows: the registry falls back to a serial rerun and says so. *)
let test_registry_survives_worker_crash () =
  let exps =
    List.init 8 (fun i ->
        let id = Printf.sprintf "EW%d" i in
        { Registry.id = id; title = "healthy"; run = (fun () -> [ pass_row id ]) })
  in
  Fault.arm ~seed:11 Fault.Worker_raise;
  let results =
    Fun.protect ~finally:Fault.disarm (fun () ->
        Pool.with_pool ~jobs:4 (fun pool -> Registry.run_all ~pool exps))
  in
  check "the injected crash fired" true (Fault.fired () = 1);
  check "every experiment reports" true (List.length results = 8);
  List.iter
    (fun ((e : Registry.experiment), rows) ->
      check (e.Registry.id ^ " kept its Pass row") true
        (List.exists (fun (r : Report.row) -> r.Report.status = Report.Pass) rows);
      check (e.Registry.id ^ " has no Fail row") true
        (List.for_all (fun (r : Report.row) -> r.Report.status <> Report.Fail) rows))
    results;
  check "the serial fallback left its Info row" true
    (List.exists
       (fun (_, rows) ->
         List.exists
           (fun (r : Report.row) -> contains r.Report.measured "reran serially")
           rows)
       results)

(* The failed attempt's counter delta is rolled back: only the attempt
   that produced the reported rows is reflected in the Stats snapshot. *)
let test_registry_retry_stats_rollback () =
  let calls = ref 0 in
  let e =
    {
      Registry.id = "EDELTA";
      title = "counts states";
      run =
        (fun () ->
          incr calls;
          if !calls = 1 then begin
            RtStats.add_states_expanded 1000;
            failwith "first attempt dies"
          end
          else begin
            RtStats.add_states_expanded 7;
            [ pass_row "EDELTA" ]
          end);
    }
  in
  let before = (RtStats.snapshot ()).RtStats.states_expanded in
  let results = Registry.run_all [ e ] in
  let after = (RtStats.snapshot ()).RtStats.states_expanded in
  check "experiment recovered" true
    (match results with
    | [ (_, rows) ] ->
        List.exists (fun (r : Report.row) -> r.Report.status = Report.Pass) rows
    | _ -> false);
  Alcotest.(check int) "only the successful attempt's work is counted" 7
    (after - before)

(* Resume skips experiments whose snapshot loads intact, and the
   resulting report is identical to an uninterrupted run. *)
let test_registry_checkpoint_resume () =
  with_tmp_dir (fun dir ->
      let e1_ran = ref 0 in
      let e1 =
        {
          Registry.id = "ER1";
          title = "t1";
          run =
            (fun () ->
              incr e1_ran;
              [ pass_row "ER1" ]);
        }
      in
      let e2 = { Registry.id = "ER2"; title = "t2"; run = (fun () -> [ pass_row "ER2" ]) } in
      (* the interrupted run finished only ER1 before dying *)
      ignore (Registry.run_all ~checkpoint:{ Registry.dir; resume = false } [ e1 ]);
      check "ER1 ran in the interrupted run" true (!e1_ran = 1);
      (* on resume ER1 must load from disk, never re-run *)
      let poisoned =
        { e1 with Registry.run = (fun () -> Alcotest.fail "ER1 re-ran despite a snapshot") }
      in
      let resumed =
        Registry.run_all ~checkpoint:{ Registry.dir; resume = true } [ poisoned; e2 ]
      in
      let reference = Registry.run_all [ e1; e2 ] in
      check "resumed rows identical to an uninterrupted run" true
        (List.map snd resumed = List.map snd reference))

(* A truncated sweep resumed under the same cap reproduces the truncated
   report exactly; resumed without the cap it completes to the
   uninterrupted rows. *)
let test_sweep_checkpoint_resume () =
  with_tmp_dir (fun dir ->
      let run ?budget ?(resume = false) ~ckpt () =
        let checkpoint =
          if ckpt then Some { Sweep.dir; every = 1; resume } else None
        in
        Sweep.run ?budget ?checkpoint ~model:"sync" ~n:4 ~t:1 ~depth:3 ()
      in
      let full = run ~ckpt:false () in
      let capped = run ~budget:(Budget.create ~max_states:5 ()) ~ckpt:true () in
      check "cap truncated the checkpointed run" true
        (capped.Sweep.status <> Budget.Complete);
      (* same cap on resume: consumption is re-imposed, so the report is
         reproduced bit for bit (and no new generation is written) *)
      let recapped =
        run ~budget:(Budget.create ~max_states:5 ()) ~ckpt:true ~resume:true ()
      in
      check "recapped resume reproduces the truncation" true
        (recapped.Sweep.levels = capped.Sweep.levels
        && recapped.Sweep.status = capped.Sweep.status);
      (* no cap on resume: completes to the uninterrupted rows *)
      let resumed = run ~ckpt:true ~resume:true () in
      check "uncapped resume completes" true (resumed.Sweep.status = Budget.Complete);
      check "resumed rows equal the uninterrupted sweep" true
        (resumed.Sweep.levels = full.Sweep.levels))

let test_chains () =
  (* Ever-bivalent models: chains complete; where every process moves
     each layer the decision deadline forces a violation, while the
     asynchronous shared-memory chains may instead starve one process
     forever (bivalent with nobody contradicting anyone). *)
  List.iter
    (fun (model, violation_forced) ->
      let c = Chains.run ~model ~n:3 ~t:1 ~length:5 in
      check (model ^ " complete") true c.Chains.complete;
      check (model ^ " lines") true (List.length c.Chains.lines = 5);
      if violation_forced then
        check (model ^ " forced violation") true
          (List.exists (fun l -> l.Chains.violation) c.Chains.lines))
    [ ("mobile", true); ("sm", false); ("mp", true); ("smp", false); ("iis", true) ];
  (* The crash model caps the chain at t states (bivalence dies at round
     t-1). *)
  let c = Chains.run ~model:"sync" ~n:4 ~t:2 ~length:5 in
  check "sync capped at t" true (List.length c.Chains.lines = 2);
  check "sync chain never violates agreement" true
    (List.for_all (fun l -> not l.Chains.violation) c.Chains.lines)

let test_unknown_model () =
  Alcotest.check_raises "chains"
    (Invalid_argument "Chains.run: unknown model \"nope\"") (fun () ->
      ignore (Chains.run ~model:"nope" ~n:3 ~t:1 ~length:5));
  Alcotest.check_raises "classify"
    (Invalid_argument "Valence_query: unknown model \"nope\"") (fun () ->
      ignore (Valence_query.run ~model:"nope" ~n:3 ~t:1 ~depth:2 ()))

let test_export_dot () =
  let dot = Export.con0_similarity ~n:3 ~t:1 in
  check "graph header" true (contains dot "graph \"");
  check "eight nodes" true (contains dot "n7 [label=");
  check "has edges" true (contains dot " -- ");
  let layer = Export.st_layer ~n:3 ~t:1 in
  check "layer labels carry verdicts" true (contains layer "univalent");
  let task = Export.task_thickness ~name:"consensus" ~n:3 in
  check "consensus thickness has no edge" false (contains task " -- ");
  let identity = Export.task_thickness ~name:"identity" ~n:3 in
  check "identity thickness has edges" true (contains identity " -- ")

(* ------------------------------------------------------------------ *)
(* Golden bytes: one committed MD5 per report surface.  Self-comparison
   oracles (serial vs pooled, resumed vs uninterrupted) cannot see a
   change that moves every configuration alike; a digest committed by an
   earlier build can.  [golden.txt] holds one line "key md5" per `all`
   experiment block (as `layered all` and `layered all --markdown` print
   it), per perfbench sweep (what `layered layers` prints), for the iis
   (4,1) depth-3 sweep under --symmetry, per `layered graph` output, per
   classify query of the serve saturation matrix (what `layered classify`
   prints), and for the `oracles` table and the `chaos --seed 42` report
   (checked in test_chaos).  After a deliberate output change, regenerate
   it from the repo root with

     LAYERED_GOLDEN_WRITE=test/golden.txt dune exec test/test_analysis.exe

   and list every changed digest with its reason in CHANGES.md. *)

let md5 = Golden.md5

(* perfbench/bench.ml's sweeps, then the first n = 4 S^per sweep:
   (model, n, t, depth) *)
let golden_sweeps =
  [
    ("smp", 5, 1, 2); ("mp", 3, 2, 5); ("iis", 5, 1, 3); ("sm", 5, 1, 3);
    ("sync", 7, 2, 3); ("mobile", 6, 1, 3); ("mp", 4, 1, 2);
  ]

let sweep_key (model, n, t, depth) = Printf.sprintf "sweep/%s/%d/%d/%d" model n t depth
let render_sweep s = Format.asprintf "%a" Sweep.pp s

(* `layered graph`: con0 at n = 3, 4 (t = 1, the CLI default), the S^t
   layer at (3,1) and (4,2), and every task's thickness at n = 3. *)
let graph_digests =
  [
    ("graph/con0/3", fun () -> Export.con0_similarity ~n:3 ~t:1);
    ("graph/con0/4", fun () -> Export.con0_similarity ~n:4 ~t:1);
    ("graph/layer/3/1", fun () -> Export.st_layer ~n:3 ~t:1);
    ("graph/layer/4/2", fun () -> Export.st_layer ~n:4 ~t:2);
  ]
  @ List.map
      (fun name -> ("graph/task/" ^ name ^ "/3", fun () -> Export.task_thickness ~name ~n:3))
      Export.task_names

let golden_digests ~jobs =
  Pool.with_pool ~jobs (fun pool ->
      let reports =
        List.concat_map
          (fun ((e : Registry.experiment), rows) ->
            [
              ( "report/" ^ e.id,
                md5 (Format.asprintf "== %s: %s@.%a@." e.id e.title Report.pp_table rows) );
              ( "markdown/" ^ e.id,
                md5 (Format.asprintf "== %s: %s@.%s@." e.id e.title (Report.to_markdown rows))
              );
            ])
          (Registry.run_all ~pool Registry.all)
      in
      let sweep ?symmetry (model, n, t, depth) =
        md5 (render_sweep (Sweep.run ~pool ?symmetry ~model ~n ~t ~depth ()))
      in
      let sym = ("iis", 4, 1, 3) in
      reports
      @ List.map (fun s -> (sweep_key s, sweep s)) golden_sweeps
      @ [ (sweep_key sym ^ "/symmetry", sweep ~symmetry:true sym) ]
      @ List.map (fun (key, dot) -> (key, md5 (dot ()))) graph_digests)
  |> List.sort compare

(* The serve saturation matrix of perfbench/bench.ml, client row by
   client row: (model, n, depth) at t = 1. *)
let golden_classify =
  [
    ("sync", 4, 5); ("mobile", 4, 4); ("sm", 3, 4); ("iis", 3, 3); ("mp", 3, 3); ("smp", 3, 3);
    ("sync", 4, 6); ("mobile", 4, 5); ("sm", 4, 3); ("iis", 4, 3); ("mp", 3, 4); ("smp", 3, 4);
    ("sync", 5, 4); ("mobile", 5, 4); ("sm", 4, 4); ("iis", 3, 4); ("sm", 5, 3); ("smp", 4, 3);
    ("sync", 5, 5); ("mobile", 6, 4); ("sm", 3, 5); ("iis", 4, 4); ("sync", 6, 5);
    ("mobile", 5, 5);
  ]

(* Each classification cold, and again through one cache shared in
   matrix order, as the daemon answers them: both renderings must
   agree. *)
let classify_digests () =
  let cache = Valence_query.create_cache () in
  List.map
    (fun (model, n, depth) ->
      let render ?cache () =
        md5
          (Format.asprintf "%a" Valence_query.pp
             (Valence_query.run ?cache ~model ~n ~t:1 ~depth ()))
      in
      let key = Printf.sprintf "classify/%s/%d/1/%d" model n depth and cold = render () in
      Alcotest.(check string) (key ^ " through the shared cache") cold (render ~cache ());
      (key, cold))
    golden_classify

(* A sweep cut by a states cap at jobs 1, resumed without the cap at
   jobs 4 from its every-2-levels checkpoint. *)
let resumed_sweep_digest () =
  let ((model, n, t, depth) as s) = ("mp", 3, 2, 5) in
  with_tmp_dir (fun dir ->
      let run ~jobs ?budget ~resume () =
        Pool.with_pool ~jobs (fun pool ->
            Sweep.run ~pool ?budget ~checkpoint:{ Sweep.dir; every = 2; resume } ~model ~n
              ~t ~depth ())
      in
      let cut = run ~jobs:1 ~budget:(Budget.create ~max_states:1000 ()) ~resume:false () in
      check "the states cap cut the sweep" true (cut.Sweep.status <> Budget.Complete);
      (sweep_key s, md5 (render_sweep (run ~jobs:4 ~resume:true ()))))

let test_golden_digests () =
  let golden = Golden.read "golden.txt" in
  let expect (key, hex) =
    Alcotest.(check (option string)) key (List.assoc_opt key golden) (Some hex)
  in
  let classify = classify_digests () in
  List.iter
    (fun jobs ->
      let got = golden_digests ~jobs in
      Alcotest.(check (list string))
        (Printf.sprintf "surfaces at jobs %d" jobs)
        (List.map fst golden)
        (List.sort compare (List.map fst (got @ classify) @ Golden.self_check_keys));
      List.iter expect got)
    [ 1; 4 ];
  List.iter expect classify;
  expect (resumed_sweep_digest ());
  let perfbench = Golden.read "../perfbench/expected.txt" in
  let shared = List.filter (fun (k, _) -> List.mem_assoc k perfbench) golden in
  check "golden shares the report, sweep and classify keys with perfbench" true
    (List.length shared = 46);
  List.iter
    (fun (key, hex) ->
      Alcotest.(check string) ("perfbench " ^ key) (List.assoc key perfbench) hex)
    shared

let () =
  match Sys.getenv_opt "LAYERED_GOLDEN_WRITE" with
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          List.iter
            (fun (key, hex) -> Printf.fprintf oc "%s %s\n" key hex)
            (List.sort compare
               (golden_digests ~jobs:1 @ classify_digests ()
               @ [
                   Golden.oracles (Layered_check.Chaos.rows ~jobs:2 ());
                   Golden.chaos (Layered_check.Chaos.run ~jobs:2 ~seed:42 ());
                 ])))
  | None ->
      Alcotest.run "layered_analysis"
        [
          ("registry", [ Alcotest.test_case "ids" `Quick test_registry_ids ]);
          ( "tools",
            [
              Alcotest.test_case "sweep" `Quick test_sweep;
              Alcotest.test_case "last row counted = row expanded" `Quick test_sweep_last_row;
              Alcotest.test_case "sweep under budget" `Quick test_sweep_budget;
              Alcotest.test_case "last level under the sweep budget" `Quick
                test_sweep_budget_last_level;
              Alcotest.test_case "checkers under budget" `Quick test_checker_budget;
              Alcotest.test_case "omission budget paths" `Quick test_omission_budget_paths;
              Alcotest.test_case "checker verdicts pinned" `Quick test_checker_pinned;
              Alcotest.test_case "registry isolates failures" `Quick
                test_registry_exception_row;
              Alcotest.test_case "retry runs on the caller domain" `Quick
                test_registry_retry_on_caller_domain;
              Alcotest.test_case "registry survives a worker crash" `Quick
                test_registry_survives_worker_crash;
              Alcotest.test_case "retry rolls back failed-attempt stats" `Quick
                test_registry_retry_stats_rollback;
              Alcotest.test_case "registry checkpoint resume" `Quick
                test_registry_checkpoint_resume;
              Alcotest.test_case "sweep checkpoint resume" `Quick
                test_sweep_checkpoint_resume;
              Alcotest.test_case "chains" `Quick test_chains;
              Alcotest.test_case "unknown model refused" `Quick test_unknown_model;
              Alcotest.test_case "dot export" `Quick test_export_dot;
            ] );
          ("experiments", List.map experiment_case Registry.all);
          ( "golden",
            [ Alcotest.test_case "report digests match the table" `Quick test_golden_digests ]
          );
        ]
