(* Benchmark harness.

   The paper has no tables or figures — its evaluation is its sequence of
   lemmas and theorems, each reproduced by an experiment in
   lib/analysis (see EXPERIMENTS.md).  Accordingly there is one Bechamel
   test per experiment kernel: the computation that regenerates the
   corresponding claim.  A few ablation benches (cache effectiveness,
   layer growth across substrates, serial vs multicore frontier
   exploration) quantify the design choices called out in DESIGN.md.

   Run with --smoke to execute every kernel exactly once (no Bechamel):
   a cheap liveness check that keeps bench code from bit-rotting.  Run
   with --json to execute every kernel once and emit one JSON object per
   kernel (name, instance parameters, wall time, states expanded,
   checkpoint snapshot bytes, words allocated) for machine consumption. *)

open Bechamel
open Toolkit
open Layered_core
module Pool = Layered_runtime.Pool
module Frontier = Layered_runtime.Frontier
module Stats = Layered_runtime.Stats
module Budget = Layered_runtime.Budget

let values = [ Value.zero; Value.one ]

(* The budgeted kernels get a fresh generous budget per invocation — the
   same machinery the CLI uses, sized so it never trips on these
   instances (a tripped budget would silently bench a shorter run). *)
let bench_budget () = Budget.create ~timeout_s:60.0 ~max_states:5_000_000 ()

(* ------------------------------------------------------------------ *)
(* Shared instantiation helpers *)

let sync_engine protocol =
  let module P = (val protocol : Layered_sync.Protocol.S) in
  (module Layered_sync.Engine.Make (P) : Layered_sync.Engine.S)

(* The FloodSet-driven sync engine that most kernels share. *)
let make_sync_engine ~t = sync_engine (Layered_protocols.Sync_floodset.make ~t)

(* Domain pools for the multicore ablations, spawned on first use and
   shared across Bechamel runs (the pool is the fixture, parallel_map is
   the measured operation). *)
let pool_jobs = [ 1; 2; 4 ]
let pools = lazy (List.map (fun j -> (j, Pool.create ~jobs:j ())) pool_jobs)
let pool jobs = List.assoc jobs (Lazy.force pools)

let shutdown_pools () =
  if Lazy.is_val pools then List.iter (fun (_, p) -> Pool.shutdown p) (Lazy.force pools)

(* ------------------------------------------------------------------ *)
(* Kernels, one per experiment *)

(* E1: classify every initial state of the (3,1) S^t submodel with a cold
   valence engine. *)
let e1_classify_initials () =
  let module E = (val make_sync_engine ~t:1) in
  let succ = E.layer (E.st ~t:1) in
  let v = Valence.create (E.valence_spec ~succ) in
  List.iter
    (fun x -> ignore (Valence.classify v ~depth:3 x))
    (E.initial_states ~n:3 ~values)

(* E2: similarity connectivity of Con_0 (n = 4). *)
let e2_con0_similarity () =
  let module E = (val make_sync_engine ~t:1) in
  ignore (Connectivity.connected ~rel:E.similar (E.initial_states ~n:4 ~values))

(* E3: expand one S1 layer of the mobile model (n = 4). *)
let e3_s1_layer =
  let module E = (val make_sync_engine ~t:1) in
  let x = E.initial ~inputs:[| 0; 1; 1; 0 |] in
  fun () -> ignore (E.layer E.s1 x)

(* E3: valence connectivity of that layer, cold engine. *)
let e3_layer_valence () =
  let module E = (val make_sync_engine ~t:1) in
  let succ = E.layer E.s1 in
  let x = E.initial ~inputs:[| 0; 1; 1 |] in
  let v = Valence.create (E.valence_spec ~succ) in
  ignore (Connectivity.valence_connected ~vals:(Valence.vals v ~depth:3) (succ x))

(* E4: the full ever-bivalent chain construction in M^mf. *)
let e4_bivalent_chain () =
  let module E = (val make_sync_engine ~t:1) in
  let succ = E.layer E.s1 in
  let v = Valence.create (E.valence_spec ~succ) in
  let classify x = Valence.classify v ~depth:3 x in
  let x0 =
    Option.get (Layering.find_bivalent ~classify (E.initial_states ~n:3 ~values))
  in
  ignore (Layering.bivalent_chain ~classify ~succ ~length:8 x0)

(* E5: expand one S^rw layer (n = 3). *)
let e5_srw_layer =
  let module P = (val Layered_protocols.Sm_voting.make ~horizon:2) in
  let module E = Layered_async_sm.Engine.Make (P) in
  let x = E.initial ~inputs:[| 0; 1; 1 |] in
  fun () -> ignore (E.srw x)

(* E5: the Lemma 5.3 bridge states. *)
let e5_bridge =
  let module P = (val Layered_protocols.Sm_voting.make ~horizon:2) in
  let module E = Layered_async_sm.Engine.Make (P) in
  let open Layered_async_sm.Engine in
  let x = E.initial ~inputs:[| 0; 1; 1 |] in
  fun () ->
    List.iter
      (fun j ->
        let y = E.apply (E.apply x { slow = j; mode = Read_late 3 }) { slow = j; mode = Absent } in
        let y' = E.apply (E.apply x { slow = j; mode = Absent }) { slow = j; mode = Read_late 0 } in
        ignore (E.agree_modulo y y' j))
      [ 1; 2; 3 ]

(* E6: expand one S^per layer (n = 3; 18 schedules). *)
let e6_sper_layer =
  let module P = (val Layered_protocols.Mp_floodset.make ~horizon:2) in
  let module E = Layered_async_mp.Engine.Make (P) in
  let x = E.initial ~inputs:[| 0; 1; 1 |] in
  fun () -> ignore (E.sper x)

(* S^per where duplicates show: every state within three layers of the
   mixed (4,1) input (what `layers -m mp -n 4 -t 1 -d 3` explores), on a
   fresh engine per call.  E6/sper-layer's n = 3 layer has 18 distinct
   successors, so it has no duplicate to drop. *)
let mp_sper_n4_d3 () =
  let module P = (val Layered_protocols.Mp_floodset.make ~horizon:2) in
  let module E = Layered_async_mp.Engine.Make (P) in
  ignore
    (Frontier.count_reachable Pool.serial ~succ:E.sper ~ident:E.ident ~depth:3
       (E.initial ~inputs:[| 0; 1; 1; 1 |]))

(* E6: all six FLP diamonds at the initial state. *)
let e6_diamond =
  let module P = (val Layered_protocols.Mp_floodset.make ~horizon:2) in
  let module E = Layered_async_mp.Engine.Make (P) in
  let x = E.initial ~inputs:[| 0; 1; 1 |] in
  let solo p = List.map (fun i -> Layered_async_mp.Engine.Solo i) p in
  let perms = Layered_async_mp.Engine.permutations [ 1; 2; 3 ] in
  fun () ->
    List.iter
      (fun p ->
        let front = List.filteri (fun i _ -> i < 2) p in
        let last = List.nth p 2 in
        let lhs = E.apply (E.apply x (solo p)) (solo front) in
        let rhs = E.apply (E.apply x (solo front)) (solo (last :: front)) in
        ignore (E.equal lhs rhs))
      perms

(* E7: exhaustive verification of FloodSet against all (3,1) crash
   adversaries. *)
let e7_verify_floodset () =
  ignore
    (Layered_analysis.Consensus_check.check
       ~protocol:(Layered_protocols.Sync_floodset.make ~t:1)
       ~failures:Layered_analysis.Consensus_check.Crash ~n:3 ~t:1 ~rounds:3
       ~budget:(bench_budget ()) ())

(* E7: the Lemma 6.1 chain plus the Lemma 6.2 round-t scan, (4,2). *)
let e7_lower_bound_chain () =
  let module E = (val make_sync_engine ~t:2) in
  let succ = E.layer (E.st ~t:2) in
  let v = Valence.create (E.valence_spec ~succ) in
  let classify x = Valence.classify v ~depth:4 x in
  let x0 =
    Option.get (Layering.find_bivalent ~classify (E.initial_states ~n:4 ~values))
  in
  let chain = Layering.bivalent_chain ~classify ~succ ~length:2 x0 in
  match List.rev chain.Layering.states with
  | last :: _ -> List.iter (fun y -> ignore (E.terminal y)) (succ last)
  | [] -> ()

(* E8: the clean-round univalence sweep, (3,1). *)
let e8_clean_round () =
  let module E = (val sync_engine (Layered_protocols.Sync_early.make ~t:1)) in
  let succ = E.layer (E.st ~t:1) in
  let v = Valence.create (E.valence_spec ~succ) in
  List.iter
    (fun x0 ->
      List.iter
        (fun x ->
          if x.E.round <= 1 then
            ignore (Valence.classify v ~depth:3 (E.apply E.Crash x (E.omit []))))
        (Frontier.reachable Pool.serial ~succ ~ident:E.ident ~depth:1 x0).Budget.value)
    (E.initial_states ~n:3 ~values)

(* E9: the exhaustive 1-thick-connectivity condition for binary consensus
   (n = 3: 8 assignments, every similarity-connected subset). *)
let e9_thick_consensus () =
  let task = Layered_topology.Task.consensus ~n:3 ~values in
  ignore (Layered_topology.Solvability.passes_necessary_condition task)

(* E9: same for 2-set agreement over three values (the solvable side). *)
let e9_thick_kset () =
  let task =
    Layered_topology.Task.k_set_agreement ~n:3 ~k:2 ~values:[ 0; 1; 2 ]
  in
  ignore (Layered_topology.Solvability.passes_necessary_condition task)

(* E10: level-1 similarity diameter of the (4,1) S^t image. *)
let e10_diameter () =
  let module E = (val make_sync_engine ~t:1) in
  let succ = E.layer (E.st ~t:1) in
  let layers = List.concat_map succ (E.initial_states ~n:4 ~values) in
  let seen = Hashtbl.create 256 in
  let x1 =
    List.filter
      (fun x ->
        let k = E.key x in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      layers
  in
  ignore (Connectivity.diameter ~rel:E.similar x1)

(* E11: explore the 2-set agreement protocol from one mixed input. *)
let e11_kset_explore () =
  let module P = (val Layered_protocols.Mp_kset.make ~n:3) in
  let module E = Layered_async_mp.Engine.Make (P) in
  ignore
    (Frontier.count_reachable Pool.serial ~succ:E.sper ~ident:E.ident ~depth:2
       (E.initial ~inputs:[| 0; 1; 2 |]))

(* E12: one covering-valence classification over three-valued inputs. *)
let e12_covering_classify () =
  let module E = (val make_sync_engine ~t:1) in
  let succ = E.layer (E.st ~t:1) in
  let all = Pid.all 3 in
  let unanimous v =
    Layered_topology.Simplex.of_assoc (List.map (fun p -> (p, v)) all)
  in
  let cover =
    Layered_topology.Covering.of_complexes
      (Layered_topology.Complex.of_simplexes [ unanimous 0; unanimous 1 ])
      (Layered_topology.Complex.of_simplexes [ unanimous 2 ])
  in
  let output x =
    let decs = E.decisions x in
    Layered_topology.Simplex.of_assoc
      (List.filter_map
         (fun i ->
           if x.E.failed.(i - 1) then None
           else match decs.(i - 1) with Some v -> Some (i, v) | None -> None)
         all)
  in
  let spec = Layered_topology.Covering.valence_spec cover ~output (E.valence_spec ~succ) in
  let v = Valence.create spec in
  ignore (Valence.classify v ~depth:3 (E.initial ~inputs:[| 1; 2; 2 |]))

(* E13: expand one IIS layer (13 ordered partitions at n = 3). *)
let e13_iis_layer =
  let module P = (val Layered_protocols.Iis_voting.make ~horizon:2) in
  let module E = Layered_iis.Engine.Make (P) in
  let x = E.initial ~inputs:[| 0; 1; 1 |] in
  fun () -> ignore (E.layer x)

(* E14: a full-information valence classification (views, not digests). *)
let e14_full_info_classify () =
  let module E = (val sync_engine (Layered_protocols.Full_info.sync ~horizon:2)) in
  let succ = E.layer E.s1 in
  let v = Valence.create (E.valence_spec ~succ) in
  ignore (Valence.classify v ~depth:3 (E.initial ~inputs:[| 0; 1; 1 |]))

(* E15: build the Kripke structure and one common-belief fixpoint.
   (Needs the protocol module P for per-process local keys, so it cannot
   use the packed make_sync_engine helper.) *)
let e15_common_belief () =
  let module P = (val Layered_protocols.Sync_floodset.make ~t:1) in
  let module E = Layered_sync.Engine.Make (P) in
  let worlds = ref [] in
  ignore
    (E.walk (E.crash ~max_new:2 ~t:1) ~rounds:3
       ~visit:(fun x -> worlds := x :: !worlds)
       (E.initial_states ~n:3 ~values));
  let module Kripke = Layered_knowledge.Kripke in
  let kr =
    Kripke.create ~n:3 ~key:E.key
      ~local_key:(fun i (x : E.state) -> P.key x.E.locals.(i - 1))
      !worlds
  in
  let phi =
    Kripke.prop_of kr (fun x -> Vset.cardinal (E.decided_vset x) <= 1)
  in
  ignore
    (Kripke.common_belief kr ~members:E.nonfailed
       ~alive:(fun i (x : E.state) -> not x.E.failed.(i - 1))
       phi)

(* E16: exhaustive verification of the clean-round protocol. *)
let e16_clean_verify () =
  ignore
    (Layered_analysis.Consensus_check.check
       ~protocol:(Layered_protocols.Sync_clean.make ~t:1)
       ~failures:Layered_analysis.Consensus_check.Crash ~n:3 ~t:1 ~rounds:3
       ~budget:(bench_budget ()) ())

(* E17: expand one two-omitter mobile layer. *)
let e17_multi_layer =
  let module E = (val make_sync_engine ~t:1) in
  let x = E.initial ~inputs:[| 0; 1; 1 |] in
  fun () -> ignore (E.layer (E.s_multi ~omitters:2) x)

(* E18: exhaustive verification of the coordinator under send-omission. *)
let e18_omission_verify () =
  ignore
    (Layered_analysis.Consensus_check.check
       ~protocol:(Layered_protocols.Sync_coordinator.make ~t:1)
       ~failures:Layered_analysis.Consensus_check.Omission ~n:3 ~t:1 ~rounds:7 ~max_new:1
       ~budget:(bench_budget ()) ())

(* ------------------------------------------------------------------ *)
(* Ablations *)

(* Valence memoisation: cold engine per call vs shared engine.  The cold
   engine is budgeted, measuring the probe overhead on the miss path. *)
let ablation_valence_cold () =
  let module E = (val make_sync_engine ~t:1) in
  let succ = E.layer (E.st ~t:1) in
  let v = Valence.create ~budget:(bench_budget ()) (E.valence_spec ~succ) in
  let x = E.initial ~inputs:[| 0; 1; 1 |] in
  ignore (Valence.classify v ~depth:3 x)

let ablation_valence_warm =
  let module E = (val make_sync_engine ~t:1) in
  let succ = E.layer (E.st ~t:1) in
  let v = Valence.create (E.valence_spec ~succ) in
  let x = E.initial ~inputs:[| 0; 1; 1 |] in
  ignore (Valence.classify v ~depth:3 x);
  fun () -> ignore (Valence.classify v ~depth:3 x)

(* Layer growth: states reachable in two layers, per substrate (via the
   budgeted entry point, measuring the budget probes too). *)
let ablation_growth_sync () =
  let module E = (val make_sync_engine ~t:1) in
  ignore
    (Frontier.count_reachable ~budget:(bench_budget ()) Pool.serial
       ~succ:(E.layer (E.st ~t:1)) ~ident:E.ident ~depth:2
       (E.initial ~inputs:[| 0; 1; 1 |]))

let ablation_growth_sm () =
  let module P = (val Layered_protocols.Sm_voting.make ~horizon:2) in
  let module E = Layered_async_sm.Engine.Make (P) in
  ignore
    (Frontier.count_reachable ~budget:(bench_budget ()) Pool.serial ~succ:E.srw
       ~ident:E.ident ~depth:2
       (E.initial ~inputs:[| 0; 1; 1 |]))

let ablation_growth_mp () =
  let module P = (val Layered_protocols.Mp_floodset.make ~horizon:2) in
  let module E = Layered_async_mp.Engine.Make (P) in
  ignore
    (Frontier.count_reachable ~budget:(bench_budget ()) Pool.serial ~succ:E.sper
       ~ident:E.ident ~depth:2
       (E.initial ~inputs:[| 0; 1; 1 |]))

(* Multicore frontier exploration: the Frontier on the shared one-job
   pool (what the experiments use) vs a bench pool of 1/2/4 domains,
   same (4,1) S^t image. *)
let ablation_frontier_serial =
  let module E = (val make_sync_engine ~t:1) in
  let succ = E.layer (E.st ~t:1) in
  let x = E.initial ~inputs:[| 0; 1; 1; 0 |] in
  fun () -> ignore (Frontier.count_reachable Pool.serial ~succ ~ident:E.ident ~depth:2 x)

let ablation_frontier jobs =
  let module E = (val make_sync_engine ~t:1) in
  let succ = E.layer (E.st ~t:1) in
  let x = E.initial ~inputs:[| 0; 1; 1; 0 |] in
  fun () ->
    ignore
      (Frontier.count_reachable ~budget:(bench_budget ()) (pool jobs) ~succ ~ident:E.ident
         ~depth:2 x)

(* Multicore E1: classify every (3,1) initial state, one cold valence
   engine per state, fanned across the pool. *)
let ablation_e1_pool jobs =
  let module E = (val make_sync_engine ~t:1) in
  let succ = E.layer (E.st ~t:1) in
  let initials = E.initial_states ~n:3 ~values in
  fun () ->
    Pool.parallel_iter (pool jobs)
      (fun x ->
        let v = Valence.create (E.valence_spec ~succ) in
        ignore (Valence.classify v ~depth:3 x))
      initials

(* ------------------------------------------------------------------ *)
(* Checkpoint kernels: the same (4,1) frontier instance as
   ablation/frontier-jobs1, once with a sink persisting a snapshot at
   every level boundary (the delta against that baseline is the
   write-path overhead: marshal, CRC, tmp write, rename) and once
   resuming from a mid-run generation (the restore path: validate,
   decode, re-seed the dedup table, finish the run).  The last snapshot
   size lands in the --json record via [last_ckpt_bytes]. *)

module Ckpt = Layered_runtime.Checkpoint

let last_ckpt_bytes = Atomic.make 0

let ckpt_bench_dir sub =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "layered-bench-ckpt-%d-%s" (Unix.getpid ()) sub)

let rm_ckpt_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let checkpoint_write =
  let module E = (val make_sync_engine ~t:1) in
  let succ = E.layer (E.st ~t:1) in
  let x = E.initial ~inputs:[| 0; 1; 1; 0 |] in
  let dir = ckpt_bench_dir "write" in
  fun () ->
    rm_ckpt_dir dir;
    let save snap =
      let saved =
        Ckpt.save ~dir ~name:"bench-write"
          ~meta:(Ckpt.make_meta ~progress:(List.length snap.Frontier.levels) ())
          ~payload:(Marshal.to_string snap [])
      in
      Atomic.set last_ckpt_bytes saved.Ckpt.bytes
    in
    ignore
      (Frontier.count_reachable ~budget:(bench_budget ())
         ~checkpoint:{ Frontier.every = 1; save } (pool 1) ~succ ~ident:E.ident
         ~depth:2 x)

let checkpoint_restore =
  let module E = (val make_sync_engine ~t:1) in
  let succ = E.layer (E.st ~t:1) in
  let x = E.initial ~inputs:[| 0; 1; 1; 0 |] in
  let dir = ckpt_bench_dir "restore" in
  (* Fixture: one mid-run generation (levels 0-1 delivered, level 2
     still to discover), written once and reloaded on every run. *)
  let fixture =
    lazy
      (rm_ckpt_dir dir;
       let save snap =
         if List.length snap.Frontier.levels = 2 then
           ignore
             (Ckpt.save ~dir ~name:"bench-restore"
                ~meta:(Ckpt.make_meta ~progress:2 ())
                ~payload:(Marshal.to_string snap []))
       in
       ignore
         (Frontier.count_reachable ~checkpoint:{ Frontier.every = 1; save }
            (pool 1) ~succ ~ident:E.ident ~depth:2 x))
  in
  fun () ->
    Lazy.force fixture;
    match Ckpt.load_latest ~dir ~name:"bench-restore" with
    | None -> failwith "checkpoint/restore: fixture generation missing"
    | Some loaded ->
        Atomic.set last_ckpt_bytes (String.length loaded.Ckpt.payload);
        let snap = (Marshal.from_string loaded.Ckpt.payload 0 : _ Frontier.snapshot) in
        ignore
          (Frontier.count_reachable ~budget:(bench_budget ()) ~resume:snap
             (pool 1) ~succ ~ident:E.ident ~depth:2 x)

let cleanup_ckpt_dirs () =
  List.iter
    (fun sub -> rm_ckpt_dir (ckpt_bench_dir sub))
    [ "write"; "restore" ]

(* ------------------------------------------------------------------ *)
(* Large frontier: one (6,1) synchronic-MP instance — the largest
   bench instance, big enough that the pooled frontier pays off —
   explored on the shared one-job pool and on bench pools of 1 and 4
   domains.
   The trio gives the speedup curve CI watches.  Each call builds its
   engine afresh, so every kernel of the trio starts from an empty
   identity table and they compare equal work. *)

let oocore ?budget pool () =
  let module P = (val Layered_protocols.Sync_floodset.make ~t:1) in
  let module E = Layered_async_mp.Synchronic.Make (P) in
  let x0 =
    E.initial ~inputs:(Array.init 6 (fun i -> if i = 0 then Value.zero else Value.one))
  in
  ignore (Frontier.count_reachable ?budget pool ~succ:E.smp ~ident:E.ident ~depth:2 x0)

let oocore_serial () = oocore Pool.serial ()
let oocore_jobs jobs () = oocore ~budget:(bench_budget ()) (pool jobs) ()

(* The whole (6,1) synchronic-MP sweep at depth 3, `layers -m smp -n 6
   -t 1 -d 3`, on the calling domain: levels 0-3 expanded and the last
   level's layers counted, on a fresh engine per call (as every sweep
   builds its row's engine afresh). *)
let sweep_smp6_d3 () =
  ignore (Layered_analysis.Sweep.run ~pool:Pool.serial ~model:"smp" ~n:6 ~t:1 ~depth:3 ())

(* ------------------------------------------------------------------ *)
(* Similarity-graph construction: the all-pairs reference vs the
   signature-bucketed builder, on the same fixture — the deduped
   depth-2 reachable set of the (4,1) S^t submodel (the largest smoke
   instance).  The fixture is shared and forced before any kernel runs
   so neither timing includes the BFS. *)

module Sim_E = (val make_sync_engine ~t:1)

let simgraph_states =
  lazy
    (Sim_E.dedup
       (List.concat_map
          (fun x0 ->
            (Frontier.reachable Pool.serial ~succ:(Sim_E.layer (Sim_E.st ~t:1))
               ~ident:Sim_E.ident ~depth:2 x0)
              .Budget.value)
          (Sim_E.initial_states ~n:4 ~values)))

let simgraph_pairwise () =
  ignore (Simgraph.pairwise ~rel:Sim_E.similar (Lazy.force simgraph_states))

let simgraph_bucketed () = ignore (Sim_E.similarity_graph (Lazy.force simgraph_states))

(* Valence memo: the same cold (4,1) classification, each round a
   fresh analysis (its own memo keyed by the dense intern id) over one
   shared engine — the registry's usage pattern. *)
let valence_rounds = 5

let valence_interned () =
  let module E = (val make_sync_engine ~t:1) in
  let succ = E.layer (E.st ~t:1) in
  for _ = 1 to valence_rounds do
    let v = Valence.create (E.valence_spec ~succ) in
    List.iter
      (fun x -> ignore (Valence.classify v ~depth:4 x))
      (E.initial_states ~n:4 ~values)
  done

(* ------------------------------------------------------------------ *)
(* Symmetry reduction: the same IIS sweep unreduced vs quotiented by
   role-respecting process renamings.  Reported rows are byte-identical
   (orbit-weighted counts); the reduction shows up as strictly fewer
   states expanded — the JSON "states" field CI gates on.  The oocore
   pair runs the larger (5,1) instance through the pooled frontier; the
   sym kernel must materialise strictly fewer states than its
   unreduced twin. *)

let symmetry_sweep ~sym () =
  ignore
    (Layered_analysis.Sweep.run ~budget:(bench_budget ()) ~symmetry:sym ~model:"iis"
       ~n:4 ~t:2 ~depth:4 ())

let oocore_iis ~sym jobs () =
  ignore
    (Layered_analysis.Sweep.run ~pool:(pool jobs) ~budget:(bench_budget ())
       ~symmetry:sym ~model:"iis" ~n:5 ~t:1 ~depth:2 ())


(* ------------------------------------------------------------------ *)
(* Serve-daemon cache ablation: the same classification query the
   daemon answers, once rebuilding the valence engines from scratch per
   request (what a one-shot CLI run pays) and once against the shared
   per-model classifier cache the daemon keeps across requests.  The
   warm kernel must beat the cold one — the gap is the entire point of
   running a persistent server. *)

module Valence_query = Layered_analysis.Valence_query

let serve_valence_cold () =
  ignore (Valence_query.run ~model:"sync" ~n:3 ~t:1 ~depth:3 ())

let serve_valence_warm =
  let cache = Valence_query.create_cache () in
  ignore (Valence_query.run ~cache ~model:"sync" ~n:3 ~t:1 ~depth:3 ());
  fun () -> ignore (Valence_query.run ~cache ~model:"sync" ~n:3 ~t:1 ~depth:3 ())

(* Warm-after-restart: the crash-recovery payoff.  Setup warms a cache
   pair and spills it to disk once; the kernel then plays a freshly
   respawned daemon — empty caches, reload the spill, answer the same
   query.  The reload (checkpoint read + part-string adoption into the
   fresh identity table) must beat serve/cold-valence's recomputation,
   or warm recovery would be pointless. *)
let serve_spill_dir =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "lsrv-bench-%d" (Unix.getpid ()))

(* The spill directory holds checkpoint files only. *)
let cleanup_spill_dir () = rm_ckpt_dir serve_spill_dir

(* Forced by [force_fixtures], outside any timed window: the spill on
   disk is the fixture, not part of the recovery being measured. *)
let serve_spill_fixture =
  lazy
    (let rcache = Layered_serve.Cache.create () in
     let vcache = Valence_query.create_cache () in
     ignore (Valence_query.run ~cache:vcache ~model:"sync" ~n:3 ~t:1 ~depth:3 ());
     match Layered_serve.Spill.save ~dir:serve_spill_dir ~rcache ~vcache () with
     | Ok _ -> ()
     | Error e -> failwith ("bench spill: " ^ e))

let serve_warm_after_restart () =
  Lazy.force serve_spill_fixture;
  let rcache = Layered_serve.Cache.create () in
  let vcache = Valence_query.create_cache () in
  ignore (Layered_serve.Spill.load ~dir:serve_spill_dir ~rcache ~vcache : int);
  ignore (Valence_query.run ~cache:vcache ~model:"sync" ~n:3 ~t:1 ~depth:3 ())

let force_fixtures () =
  ignore (Lazy.force simgraph_states);
  Lazy.force serve_spill_fixture

(* ------------------------------------------------------------------ *)
(* Saturation: k clients pipelining m mixed cold queries each against a
   real in-process daemon.  The same workload runs twice — a jobs=1
   daemon answers strictly in arrival order, a jobs=4 daemon fans the
   flights out across its pool — so the seq/conc gap is exactly the
   payoff of concurrent dispatch under multi-client load.  Every
   (client, request) pair carries a distinct cache key: the result
   cache and single-flight coalescing would otherwise flatten the
   comparison into a cache microbenchmark. *)

(* 4 clients x 6 queries, 24 distinct (model, n, depth) triples, each
   5-250 ms of cold classification at t=1. *)
let saturation_matrix =
  [|
    [ ("sync", 4, 5); ("mobile", 4, 4); ("sm", 3, 4);
      ("iis", 3, 3); ("mp", 3, 3); ("smp", 3, 3) ];
    [ ("sync", 4, 6); ("mobile", 4, 5); ("sm", 4, 3);
      ("iis", 4, 3); ("mp", 3, 4); ("smp", 3, 4) ];
    [ ("sync", 5, 4); ("mobile", 5, 4); ("sm", 4, 4);
      ("iis", 3, 4); ("sm", 5, 3); ("smp", 4, 3) ];
    [ ("sync", 5, 5); ("mobile", 6, 4); ("sm", 3, 5);
      ("iis", 4, 4); ("sync", 6, 5); ("mobile", 5, 5) ];
  |]

let serve_saturation ~jobs () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lsrv-bench-sat-%d-%d.sock" (Unix.getpid ()) jobs)
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let cfg =
    {
      (Layered_serve.Server.default_config ~socket_path:path) with
      jobs;
      request_timeout_s = 0.;
      install_signals = false;
    }
  in
  let dom = Domain.spawn (fun () -> Layered_serve.Server.run cfg) in
  let rec wait n =
    if Sys.file_exists path then ()
    else if n = 0 then failwith "saturation bench: server socket never appeared"
    else begin
      Unix.sleepf 0.01;
      wait (n - 1)
    end
  in
  wait 1_000;
  let clients =
    Array.mapi
      (fun i queries ->
        Domain.spawn (fun () ->
            match Layered_serve.Client.connect path with
            | Error e -> failwith ("saturation bench connect: " ^ e)
            | Ok c ->
                Fun.protect
                  ~finally:(fun () -> Layered_serve.Client.close c)
                  (fun () ->
                    (* pipeline the whole batch, then collect: up to
                       k*m requests in flight at once *)
                    List.iteri
                      (fun j (model, n, depth) ->
                        let line =
                          Layered_serve.Protocol.encode_request
                            ~id:((i * 100) + j)
                            (Layered_serve.Protocol.Classify_valence
                               { model; n; t = 1; depth })
                        in
                        match Layered_serve.Client.send c line with
                        | Ok () -> ()
                        | Error e -> failwith ("saturation bench send: " ^ e))
                      queries;
                    match
                      Layered_serve.Client.read_lines c
                        ~n:(List.length queries) ~timeout_s:300.
                    with
                    | Ok _ -> ()
                    | Error e -> failwith ("saturation bench read: " ^ e))))
      saturation_matrix
  in
  Array.iter Domain.join clients;
  (match Layered_serve.Client.connect path with
  | Error e -> failwith ("saturation bench shutdown connect: " ^ e)
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Layered_serve.Client.close c)
        (fun () ->
          match
            Layered_serve.Client.request c Layered_serve.Protocol.Shutdown
              ~timeout_s:30.
          with
          | Ok _ -> ()
          | Error e -> failwith ("saturation bench shutdown: " ^ e)));
  match Domain.join dom with
  | 0 -> ()
  | code -> failwith (Printf.sprintf "saturation bench daemon exited %d" code)

let serve_saturation_seq () = serve_saturation ~jobs:1 ()
let serve_saturation_conc () = serve_saturation ~jobs:4 ()

(* ------------------------------------------------------------------ *)
(* Chaos-layer overhead: the fault sites threaded through the hot paths
   must be free when injection is disarmed (the production state, and
   always the state here).  One million probes of the disabled fast
   path — a flag read and a branch each — so the per-probe cost lands
   in the --json record where CI can watch it. *)

module Fault = Layered_runtime.Fault

let chaos_point_disabled () =
  for _ = 1 to 1_000_000 do
    if Fault.point Fault.Drop_successor then assert false
  done

let chaos_mangle_disabled =
  let level = [ 1; 2; 3 ] in
  fun () ->
    for _ = 1 to 1_000_000 do
      ignore (Fault.mangle_level level)
    done

(* ------------------------------------------------------------------ *)
(* Harness *)

(* Each kernel carries the instance parameters it exercises so that
   machine-readable output (--json) is self-describing. *)
type kernel = { name : string; n : int; t : int; depth : int; fn : unit -> unit }

let kernels =
  [
    { name = "E1/classify-initials"; n = 3; t = 1; depth = 3; fn = e1_classify_initials };
    { name = "E2/con0-similarity"; n = 4; t = 1; depth = 0; fn = e2_con0_similarity };
    { name = "E3/s1-layer"; n = 4; t = 1; depth = 1; fn = e3_s1_layer };
    { name = "E3/layer-valence"; n = 3; t = 1; depth = 3; fn = e3_layer_valence };
    { name = "E4/bivalent-chain"; n = 3; t = 1; depth = 3; fn = e4_bivalent_chain };
    { name = "E5/srw-layer"; n = 3; t = 2; depth = 1; fn = e5_srw_layer };
    { name = "E5/bridge"; n = 3; t = 2; depth = 2; fn = e5_bridge };
    { name = "E6/sper-layer"; n = 3; t = 2; depth = 1; fn = e6_sper_layer };
    { name = "E6/diamond"; n = 3; t = 2; depth = 2; fn = e6_diamond };
    { name = "mp/sper-n4-d3"; n = 4; t = 1; depth = 3; fn = mp_sper_n4_d3 };
    { name = "E7/verify-floodset"; n = 3; t = 1; depth = 3; fn = e7_verify_floodset };
    { name = "E7/lower-bound-chain"; n = 4; t = 2; depth = 4; fn = e7_lower_bound_chain };
    { name = "E8/clean-round"; n = 3; t = 1; depth = 3; fn = e8_clean_round };
    { name = "E9/thick-consensus"; n = 3; t = 1; depth = 0; fn = e9_thick_consensus };
    { name = "E9/thick-kset"; n = 3; t = 1; depth = 0; fn = e9_thick_kset };
    { name = "E10/diameter"; n = 4; t = 1; depth = 1; fn = e10_diameter };
    { name = "E11/kset-explore"; n = 3; t = 1; depth = 2; fn = e11_kset_explore };
    { name = "E12/covering-classify"; n = 3; t = 1; depth = 3; fn = e12_covering_classify };
    { name = "E13/iis-layer"; n = 3; t = 2; depth = 1; fn = e13_iis_layer };
    { name = "E14/full-info-classify"; n = 3; t = 1; depth = 3; fn = e14_full_info_classify };
    { name = "E15/common-belief"; n = 3; t = 1; depth = 3; fn = e15_common_belief };
    { name = "E16/clean-verify"; n = 3; t = 1; depth = 3; fn = e16_clean_verify };
    { name = "E17/multi-layer"; n = 3; t = 1; depth = 1; fn = e17_multi_layer };
    { name = "E18/omission-verify"; n = 3; t = 1; depth = 7; fn = e18_omission_verify };
    { name = "ablation/valence-cold"; n = 3; t = 1; depth = 3; fn = ablation_valence_cold };
    { name = "ablation/valence-warm"; n = 3; t = 1; depth = 3; fn = ablation_valence_warm };
    { name = "ablation/growth-sync"; n = 3; t = 1; depth = 2; fn = ablation_growth_sync };
    { name = "ablation/growth-sm"; n = 3; t = 1; depth = 2; fn = ablation_growth_sm };
    { name = "ablation/growth-mp"; n = 3; t = 1; depth = 2; fn = ablation_growth_mp };
    { name = "ablation/frontier-serial"; n = 4; t = 1; depth = 2; fn = ablation_frontier_serial };
    { name = "ablation/frontier-jobs1"; n = 4; t = 1; depth = 2; fn = ablation_frontier 1 };
    { name = "ablation/frontier-jobs2"; n = 4; t = 1; depth = 2; fn = ablation_frontier 2 };
    { name = "ablation/frontier-jobs4"; n = 4; t = 1; depth = 2; fn = ablation_frontier 4 };
    { name = "ablation/e1-pool-jobs1"; n = 3; t = 1; depth = 3; fn = ablation_e1_pool 1 };
    { name = "ablation/e1-pool-jobs2"; n = 3; t = 1; depth = 3; fn = ablation_e1_pool 2 };
    { name = "ablation/e1-pool-jobs4"; n = 3; t = 1; depth = 3; fn = ablation_e1_pool 4 };
    { name = "simgraph/pairwise"; n = 4; t = 1; depth = 2; fn = simgraph_pairwise };
    { name = "simgraph/bucketed"; n = 4; t = 1; depth = 2; fn = simgraph_bucketed };
    { name = "valence/interned"; n = 4; t = 1; depth = 4; fn = valence_interned };
    { name = "checkpoint/write"; n = 4; t = 1; depth = 2; fn = checkpoint_write };
    { name = "checkpoint/restore"; n = 4; t = 1; depth = 2; fn = checkpoint_restore };
    { name = "oocore/smp6-serial"; n = 6; t = 1; depth = 2; fn = oocore_serial };
    { name = "oocore/smp6-jobs1"; n = 6; t = 1; depth = 2; fn = oocore_jobs 1 };
    { name = "oocore/smp6-jobs4"; n = 6; t = 1; depth = 2; fn = oocore_jobs 4 };
    { name = "sweep/smp6-d3"; n = 6; t = 1; depth = 3; fn = sweep_smp6_d3 };
    { name = "ablation/symmetry-off"; n = 4; t = 2; depth = 4; fn = symmetry_sweep ~sym:false };
    { name = "ablation/symmetry-on"; n = 4; t = 2; depth = 4; fn = symmetry_sweep ~sym:true };
    { name = "oocore/iis5-serial"; n = 5; t = 1; depth = 2; fn = oocore_iis ~sym:false 1 };
    { name = "oocore/iis5-jobs4"; n = 5; t = 1; depth = 2; fn = oocore_iis ~sym:false 4 };
    { name = "oocore/iis5-sym-jobs4"; n = 5; t = 1; depth = 2; fn = oocore_iis ~sym:true 4 };
    { name = "serve/cold-valence"; n = 3; t = 1; depth = 3; fn = serve_valence_cold };
    { name = "serve/warm-valence"; n = 3; t = 1; depth = 3; fn = serve_valence_warm };
    { name = "serve/warm-after-restart"; n = 3; t = 1; depth = 3; fn = serve_warm_after_restart };
    { name = "serve/saturation-seq"; n = 4; t = 1; depth = 5; fn = serve_saturation_seq };
    { name = "serve/saturation-conc"; n = 4; t = 1; depth = 5; fn = serve_saturation_conc };
    { name = "chaos/point-disabled"; n = 0; t = 0; depth = 0; fn = chaos_point_disabled };
    { name = "chaos/mangle-disabled"; n = 0; t = 0; depth = 0; fn = chaos_mangle_disabled };
  ]

let run_smoke () =
  force_fixtures ();
  List.iter
    (fun k ->
      Printf.printf "smoke %-32s%!" k.name;
      k.fn ();
      Printf.printf "  ok\n%!")
    kernels;
  Printf.printf "all %d bench kernels ran\n" (List.length kernels)

(* One run per kernel, wall clock, states-expanded delta and minor words,
   as a JSON array on stdout.  Deliberately no Bechamel: the point is a
   cheap machine-readable snapshot (e.g. for CI trend lines), not a
   rigorous estimate. *)
let run_json () =
  force_fixtures ();
  print_string "[";
  (* Header element: run-wide metadata.  Deliberately has no "kernel"
     key — the sed/awk consumers (scripts/bench_compare.sh, the CI
     gates) match per-kernel lines on "kernel" and skip this row. *)
  Printf.printf "\n  {\"meta\": {\"cores\": %d, \"pool_jobs\": [%s]}}"
    (Domain.recommended_domain_count ())
    (String.concat ", " (List.map string_of_int pool_jobs));
  List.iter
    (fun k ->
      print_string ",";
      Stats.reset ();
      Atomic.set last_ckpt_bytes 0;
      (* Settle the previous kernel's garbage so single-shot wall times
         compare across adjacent kernels instead of charging one kernel
         with its predecessor's major-GC debt. *)
      Gc.compact ();
      (* [minor_words]: the words the run allocated on this domain, the
         caller's; a pooled kernel's workers are not counted.  Unlike
         [wall_ns], a serial kernel's figure repeats run to run. *)
      let w0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      k.fn ();
      let t1 = Unix.gettimeofday () in
      let w1 = Gc.minor_words () in
      let s = Stats.snapshot () in
      Printf.printf
        "\n  {\"kernel\": %S, \"n\": %d, \"t\": %d, \"depth\": %d, \"wall_ns\": %.0f, \
         \"states\": %d, \"bytes\": %d, \"orbit_hits\": %d, \"minor_words\": %.0f}"
        k.name k.n k.t k.depth
        ((t1 -. t0) *. 1e9)
        s.Stats.states_expanded
        (Atomic.get last_ckpt_bytes)
        s.Stats.orbit_hits (w1 -. w0))
    kernels;
  print_string "\n]\n"

let run_bechamel () =
  force_fixtures ();
  let tests = List.map (fun k -> Test.make ~name:k.name (Staged.stage k.fn)) kernels in
  let grouped = Test.make_grouped ~name:"layered" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  Format.printf "%-32s  %14s@." "benchmark" "ns/run";
  Format.printf "%-32s  %14s@." (String.make 32 '-') (String.make 14 '-');
  List.iter
    (fun (name, ns) -> Format.printf "%-32s  %14.1f@." name ns)
    rows

let () =
  let has flag = Array.exists (String.equal flag) Sys.argv in
  let finally () =
    shutdown_pools ();
    cleanup_ckpt_dirs ();
    cleanup_spill_dir ()
  in
  Fun.protect ~finally (fun () ->
      if has "--smoke" then run_smoke ()
      else if has "--json" then run_json ()
      else run_bechamel ())
