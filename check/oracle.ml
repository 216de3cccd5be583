open Layered_core
open Layered_analysis
module Budget = Layered_runtime.Budget
module Pool = Layered_runtime.Pool
module Frontier = Layered_runtime.Frontier
module Ckpt = Layered_runtime.Checkpoint
module RStats = Layered_runtime.Stats

type verdict = { ok : bool; detail : string }
type t = { name : string; what : string; check : jobs:int -> verdict }

let pass_ = { ok = true; detail = "ok" }
let fail detail = { ok = false; detail }

(* Parallel legs always get at least two jobs: an oracle run with
   [~jobs:1] would never dispatch to a worker domain and the worker
   fault sites could not fire. *)
let clamp jobs = max 2 jobs
let mixed_inputs n = Array.init n (fun i -> if i = 0 then Value.zero else Value.one)

(* Clean runs of the timed workloads finish in a few milliseconds; a
   stalled worker adds [Fault.stall_seconds] = 0.25 s.  The threshold is
   absolute so the oracle needs no paired reference run. *)
let fast_threshold_s = 0.1

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* ------------------------------------------------------------------ *)
(* The reference BFS: serial and keyed by rendered strings, with no     *)
(* budget, no counters and no fault site.  It shares no code with       *)
(* {!Frontier} and no identity with the [Intern] ids the frontier       *)
(* dedups by, so a fault in either shows up as a difference.            *)

let reachable ~succ ~key ~depth x0 =
  let seen = Hashtbl.create 256 in
  let queue = Queue.create () in
  let push d y =
    let k = key y in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      Queue.add (d, y) queue
    end
  in
  push 0 x0;
  let acc = ref [] in
  while not (Queue.is_empty queue) do
    let d, y = Queue.pop queue in
    acc := y :: !acc;
    if d < depth then List.iter (push (d + 1)) (succ y)
  done;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Differential: reference BFS vs pooled frontier BFS, byte-for-byte.  *)

let serial_parallel (type a) ~(succ : a -> a list) ~(key : a -> string)
    ~(ident : a -> int) ~depth (x0 : a) ~jobs =
  Pool.with_pool ~jobs:(clamp jobs) (fun pool ->
      let serial = List.map key (reachable ~succ ~key ~depth x0) in
      let par =
        List.map key (Frontier.reachable pool ~succ ~ident ~depth x0).Budget.value
      in
      if serial = par then pass_
      else
        fail
          (Printf.sprintf "serial BFS visited %d states, parallel %d (or orders differ)"
             (List.length serial) (List.length par)))

(* The engine's state type is existential once the protocol module is
   opened locally, so continuations over a workload must be explicitly
   polymorphic. *)
type workload_user = {
  use :
    'a. succ:('a -> 'a list) -> key:('a -> string) -> ident:('a -> int) -> x0:'a -> verdict;
}

(* The layering of a model-table row, from the mixed initial state. *)
let with_model model ~n ~t { use } =
  let module E = (val (Models.get ~caller:"Oracle" model).Models.engine ~t) in
  use ~succ:E.layer ~key:E.key ~ident:E.ident ~x0:(E.initial ~inputs:(mixed_inputs n))

(* A synthetic binary tree: no dedup pressure, every state fresh, so a
   dropped or duplicated state can never be papered over. *)
let tree_succ x = if x < 255 then [ (2 * x) + 1; (2 * x) + 2 ] else []
let tree_key = string_of_int

let sp_sync ~jobs =
  with_model "sync" ~n:3 ~t:1 { use = (fun ~succ ~key ~ident ~x0 ->
      serial_parallel ~succ ~key ~ident ~depth:3 x0 ~jobs) }

let sp_mobile ~jobs =
  with_model "mobile" ~n:3 ~t:1 { use = (fun ~succ ~key ~ident ~x0 ->
      serial_parallel ~succ ~key ~ident ~depth:2 x0 ~jobs) }

let sp_tree ~jobs =
  serial_parallel ~succ:tree_succ ~key:tree_key ~ident:Fun.id ~depth:8 0 ~jobs

(* ------------------------------------------------------------------ *)
(* Conservation: levels are disjoint, their union is the serial        *)
(* reachable set, and the counting traversal agrees.                   *)

let conservation_sync ~jobs =
  with_model "sync" ~n:4 ~t:1 { use = (fun ~succ ~key ~ident ~x0 ->
      Pool.with_pool ~jobs:(clamp jobs) (fun pool ->
          let o = Frontier.levels pool ~succ ~ident ~depth:2 x0 in
          let flat = List.map key (List.concat o.Budget.value) in
          let serial = List.map key (reachable ~succ ~key ~depth:2 x0) in
          let count =
            (Frontier.count_reachable pool ~succ ~ident ~depth:2 x0).Budget.value
          in
          let distinct = List.sort_uniq compare flat in
          if o.Budget.status <> Budget.Complete then fail "unbudgeted run not Complete"
          else if List.length distinct <> List.length flat then
            fail "levels are not disjoint"
          else if flat <> serial then fail "flattened levels differ from serial BFS"
          else if count <> List.length serial then
            fail
              (Printf.sprintf "count_reachable says %d, serial BFS visited %d" count
                 (List.length serial))
          else pass_)) }

(* ------------------------------------------------------------------ *)
(* Metamorphic: a states-capped run is a prefix of the full run.       *)

let prefix_sync ~jobs =
  with_model "sync" ~n:4 ~t:1 { use = (fun ~succ ~key ~ident ~x0 ->
      Pool.with_pool ~jobs:(clamp jobs) (fun pool ->
          let full = Frontier.levels pool ~succ ~ident ~depth:3 x0 in
          let budget = Budget.create ~max_states:5 () in
          let capped = Frontier.levels ~budget pool ~succ ~ident ~depth:3 x0 in
          let keys o = List.map (List.map key) o.Budget.value in
          let rec is_prefix a b =
            match (a, b) with
            | [], _ -> true
            | x :: a', y :: b' -> x = y && is_prefix a' b'
            | _ :: _, [] -> false
          in
          match capped.Budget.status with
          | Budget.Truncated { Budget.reason = Budget.States; _ } ->
              if is_prefix (keys capped) (keys full) then pass_
              else fail "capped levels are not a prefix of the full run"
          | Budget.Truncated { Budget.reason; _ } ->
              fail
                (Format.asprintf "truncated for the wrong reason: %a" Budget.pp_reason
                   reason)
          | Budget.Complete -> fail "max_states=5 failed to truncate")) }

(* ------------------------------------------------------------------ *)
(* Metamorphic: valence classification is order-invariant — two        *)
(* independent engines fed the same states in opposite orders agree.   *)

let perm_invariant (type a) ~(spec : a Valence.spec) ~depth (states : a list) =
  let classify order =
    let v = Valence.create spec in
    List.map (fun x -> Valence.classify v ~depth x) order
  in
  let forward = classify states in
  let backward = List.rev (classify (List.rev states)) in
  if List.for_all2 Valence.verdict_equal forward backward then pass_
  else fail "classification differs between traversal orders"

(* Con_0 of a model-table row at t = 1. *)
let vp_row model ~depth =
  let module E = (val (Models.get ~caller:"Oracle" model).Models.engine ~t:1) in
  perm_invariant ~spec:(E.valence_spec ~succ:E.layer) ~depth
    (E.initial_states ~n:3 ~values:[ Value.zero; Value.one ])

let vp_floodset ~jobs:_ = vp_row "sync" ~depth:3

let vp_early ~jobs:_ =
  let module P = (val Layered_protocols.Sync_early.make ~t:1) in
  let module E = Layered_sync.Engine.Make (P) in
  let succ = E.layer (E.st ~t:1) in
  perm_invariant ~spec:(E.valence_spec ~succ) ~depth:2
    (E.initial_states ~n:3 ~values:[ Value.zero; Value.one ])

let vp_mobile ~jobs:_ = vp_row "mobile" ~depth:2

(* ------------------------------------------------------------------ *)
(* Containment: a worker crash must surface as an exception (or not at *)
(* all), never corrupt results, and must leave the pool usable.        *)

let contained troubles alive =
  match (troubles, alive) with
  | [], true -> pass_
  | ts, true -> fail ("contained: " ^ String.concat "; " (List.rev ts))
  | _, false -> fail "pool unusable afterwards"

let containment_map ~jobs =
  Pool.with_pool ~jobs:(clamp jobs) (fun pool ->
      let xs = List.init 256 Fun.id in
      let expect = List.map (fun x -> (x * x) + 1) xs in
      let troubles = ref [] in
      for pass = 1 to 4 do
        match Pool.parallel_map pool (fun x -> (x * x) + 1) xs with
        | got ->
            if got <> expect then
              troubles := Printf.sprintf "pass %d: wrong result" pass :: !troubles
        | exception e ->
            troubles :=
              Printf.sprintf "pass %d: raised %s" pass (Printexc.to_string e)
              :: !troubles
      done;
      let alive =
        try Pool.parallel_map pool (fun x -> x + 1) [ 1; 2; 3 ] = [ 2; 3; 4 ]
        with _ -> false
      in
      contained !troubles alive)

let containment_frontier ~jobs =
  Pool.with_pool ~jobs:(clamp jobs) (fun pool ->
      let expect =
        List.map tree_key (reachable ~succ:tree_succ ~key:tree_key ~depth:8 0)
      in
      let troubles = ref [] in
      for pass = 1 to 4 do
        match
          (Frontier.reachable pool ~succ:tree_succ ~ident:Fun.id ~depth:8 0)
            .Budget.value
        with
        | got ->
            if List.map tree_key got <> expect then
              troubles := Printf.sprintf "pass %d: wrong result" pass :: !troubles
        | exception e ->
            troubles :=
              Printf.sprintf "pass %d: raised %s" pass (Printexc.to_string e)
              :: !troubles
      done;
      let alive =
        try Pool.parallel_map pool (fun x -> x + 1) [ 1; 2; 3 ] = [ 2; 3; 4 ]
        with _ -> false
      in
      contained !troubles alive)

let probe_experiments =
  List.init 4 (fun i ->
      let id = Printf.sprintf "probe%d" (i + 1) in
      {
        Registry.id;
        title = "chaos probe";
        run =
          (fun () ->
            [
              Report.check ~id ~claim:"probe" ~params:"" ~expected:"runs"
                ~measured:"ran" true;
            ]);
      })

let containment_registry ~jobs =
  Pool.with_pool ~jobs:(clamp jobs) (fun pool ->
      let troubles = ref [] in
      for pass = 1 to 4 do
        let results = Registry.run_all ~pool probe_experiments in
        let rows = List.concat_map snd results in
        if
          List.exists
            (fun (r : Report.row) -> r.Report.id = "registry")
            rows
        then troubles := Printf.sprintf "pass %d: serial fallback" pass :: !troubles;
        if List.length results <> List.length probe_experiments then
          troubles := Printf.sprintf "pass %d: experiments lost" pass :: !troubles
        else if not (Report.all_pass rows) then
          troubles := Printf.sprintf "pass %d: probe rows failed" pass :: !troubles
      done;
      let alive =
        try Pool.parallel_map pool (fun x -> x + 1) [ 1; 2; 3 ] = [ 2; 3; 4 ]
        with _ -> false
      in
      contained !troubles alive)

(* ------------------------------------------------------------------ *)
(* Completeness: under a budget far larger than the workload, every    *)
(* run must report [Complete] — a truncation can only mean a phantom   *)
(* deadline, cap, or cancellation.                                     *)

let generous () = Budget.create ~max_states:1_000_000 ()

let complete_frontier ~jobs =
  with_model "sync" ~n:3 ~t:1 { use = (fun ~succ ~key:_ ~ident ~x0 ->
      Pool.with_pool ~jobs:(clamp jobs) (fun pool ->
          let o = Frontier.reachable ~budget:(generous ()) pool ~succ ~ident ~depth:3 x0 in
          match o.Budget.status with
          | Budget.Complete ->
              if o.Budget.value = [] then fail "empty reachable set" else pass_
          | Budget.Truncated tr ->
              fail
                (Format.asprintf "generous budget truncated: %a" Budget.pp_truncation
                   tr))) }

let complete_consensus ~jobs:_ =
  let r =
    Consensus_check.check
      ~protocol:(Layered_protocols.Sync_floodset.make ~t:1)
      ~failures:Crash ~n:3 ~t:1 ~rounds:2 ~budget:(generous ()) ()
  in
  match r.Consensus_check.status with
  | Budget.Complete ->
      if r.agreement_ok && r.validity_ok && r.termination_ok then pass_
      else fail "floodset verdicts regressed under a generous budget"
  | Budget.Truncated tr ->
      fail (Format.asprintf "generous budget truncated: %a" Budget.pp_truncation tr)

let complete_omission ~jobs:_ =
  let r =
    Consensus_check.check
      ~protocol:(Layered_protocols.Sync_coordinator.make ~t:1)
      ~failures:Omission ~n:3 ~t:1 ~rounds:6 ~max_new:1 ~budget:(generous ()) ()
  in
  match r.Consensus_check.status with
  | Budget.Complete ->
      if r.agreement_ok && r.validity_ok && r.termination_ok then pass_
      else fail "coordinator verdicts regressed under a generous budget"
  | Budget.Truncated tr ->
      fail (Format.asprintf "generous budget truncated: %a" Budget.pp_truncation tr)

(* ------------------------------------------------------------------ *)
(* Timing: small fixed workloads against an absolute wall-clock bound. *)

let timing verdict elapsed =
  if elapsed < fast_threshold_s then verdict
  else fail (Printf.sprintf "took %.3f s (threshold %.2f s)" elapsed fast_threshold_s)

let timing_map ~jobs =
  Pool.with_pool ~jobs:(clamp jobs) (fun pool ->
      let xs = List.init 64 Fun.id in
      let bad = ref false in
      let elapsed =
        timed (fun () ->
            for _ = 1 to 4 do
              if Pool.parallel_map pool (fun x -> x + 1) xs <> List.map succ xs then
                bad := true
            done)
      in
      timing (if !bad then fail "wrong result" else pass_) elapsed)

let timing_frontier ~jobs =
  with_model "sync" ~n:3 ~t:1 { use = (fun ~succ ~key:_ ~ident ~x0 ->
      Pool.with_pool ~jobs:(clamp jobs) (fun pool ->
          let n = ref 0 in
          let elapsed =
            timed (fun () ->
                n := (Frontier.count_reachable pool ~succ ~ident ~depth:3 x0).Budget.value)
          in
          timing (if !n > 0 then pass_ else fail "empty reachable set") elapsed)) }

let timing_iter ~jobs =
  Pool.with_pool ~jobs:(clamp jobs) (fun pool ->
      let xs = List.init 64 Fun.id in
      let hits = Atomic.make 0 in
      let elapsed =
        timed (fun () ->
            for _ = 1 to 4 do
              Pool.parallel_iter pool
                (fun _ -> ignore (Atomic.fetch_and_add hits 1))
                xs
            done)
      in
      timing
        (if Atomic.get hits = 4 * List.length xs then pass_
         else fail "parallel_iter lost elements")
        elapsed)

(* ------------------------------------------------------------------ *)
(* Cross-engine: the one 2-set algorithm verified on three substrates. *)

let cross_engine_kset ~jobs:_ =
  let rows = E19_equivalence.run () in
  if Report.all_pass rows then pass_
  else fail "the three substrates disagree on the 2-set algorithm"

(* ------------------------------------------------------------------ *)
(* Durability: checkpoint/resume equivalence and torn-write recovery.  *)
(* Each oracle runs its workload in a private temp directory, then     *)
(* scans *every* generation left on disk: a torn or corrupt one —      *)
(* whatever rollback absorbed it — is a detection.  Details mention    *)
(* counts, never paths or which file, so output stays byte-identical   *)
(* across job counts.                                                  *)

let tmp_counter = Atomic.make 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let with_tmp_dir f =
  let base = Filename.get_temp_dir_name () in
  let rec fresh () =
    let dir =
      Filename.concat base
        (Printf.sprintf "layered-check-%d-%d" (Unix.getpid ())
           (Atomic.fetch_and_add tmp_counter 1))
    in
    match Unix.mkdir dir 0o700 with
    | () -> dir
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> fresh ()
  in
  let dir = fresh () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let corrupt_generations ~dir names =
  List.concat_map
    (fun name ->
      List.filter (fun (_, intact) -> not intact) (Ckpt.scan ~dir ~name))
    names

(* Kill a frontier BFS with a states cap, resume from the newest intact
   snapshot, and demand the resumed levels equal an uninterrupted run's
   — then audit every generation (>= 7 saves, so an armed checkpoint
   fault is certain to fire). *)
let resume_frontier ~jobs =
  Pool.with_pool ~jobs:(clamp jobs) (fun pool ->
      with_tmp_dir (fun dir ->
          let name = "frontier" in
          let depth = 8 in
          let keys o = List.map (List.map tree_key) o.Budget.value in
          let full = Frontier.levels pool ~succ:tree_succ ~ident:Fun.id ~depth 0 in
          let save (snap : int Frontier.snapshot) =
            ignore
              (Ckpt.save ~dir ~name
                 ~meta:
                   (Ckpt.make_meta ~progress:(List.length snap.Frontier.levels) ())
                 ~payload:(Marshal.to_string snap []))
          in
          let budget = Budget.create ~max_states:80 () in
          let interrupted =
            Frontier.levels ~budget
              ~checkpoint:{ Frontier.every = 1; save }
              pool ~succ:tree_succ ~ident:Fun.id ~depth 0
          in
          match interrupted.Budget.status with
          | Budget.Complete -> fail "max_states=80 failed to interrupt the run"
          | Budget.Truncated _ -> (
              match Ckpt.load_latest ~dir ~name with
              | None -> fail "no intact generation to resume from"
              | Some loaded -> (
                  match
                    (Marshal.from_string loaded.Ckpt.payload 0
                      : int Frontier.snapshot)
                  with
                  | exception _ -> fail "intact generation failed to decode"
                  | snap -> (
                      let resumed =
                        Frontier.levels ~resume:snap pool ~succ:tree_succ
                          ~ident:Fun.id ~depth 0
                      in
                      let corrupt = corrupt_generations ~dir [ name ] in
                      match resumed.Budget.status with
                      | Budget.Truncated _ -> fail "resumed run did not complete"
                      | Budget.Complete ->
                          if keys resumed <> keys full then
                            fail "resumed levels differ from the uninterrupted run"
                          else if corrupt <> [] then
                            fail
                              (Printf.sprintf
                                 "detected %d torn/corrupt generation(s); \
                                  rollback still reproduced the run"
                                 (List.length corrupt))
                          else pass_)))))

(* Kill a registry run mid-flight (a probe cancels the budget), resume,
   and demand the resumed report equal an uninterrupted one — then audit
   every per-experiment generation (6 probes = 6 saves across the
   interrupted + resumed runs). *)
let resume_registry ~jobs =
  Pool.with_pool ~jobs:(clamp jobs) (fun pool ->
      with_tmp_dir (fun dir ->
          let cancel_target = ref None in
          let probes =
            List.init 6 (fun i ->
                let id = Printf.sprintf "RP%d" (i + 1) in
                {
                  Registry.id;
                  title = "resume probe";
                  run =
                    (fun () ->
                      if i = 3 then Option.iter Budget.cancel !cancel_target;
                      [
                        Report.check ~id ~claim:"probe" ~params:""
                          ~expected:"runs" ~measured:"ran" true;
                      ]);
                })
          in
          let render results =
            Report.to_markdown (List.concat_map snd results)
          in
          let reference = render (Registry.run_all ~pool probes) in
          let budget = Budget.create () in
          cancel_target := Some budget;
          let _interrupted : (Registry.experiment * Report.row list) list =
            Registry.run_all ~pool ~budget
              ~checkpoint:{ Registry.dir; resume = false }
              probes
          in
          cancel_target := None;
          let resumed =
            render
              (Registry.run_all ~pool
                 ~checkpoint:{ Registry.dir; resume = true }
                 probes)
          in
          let corrupt =
            corrupt_generations ~dir (List.map Registry.checkpoint_name probes)
          in
          if resumed <> reference then
            fail "resumed report differs from the uninterrupted run"
          else if corrupt <> [] then
            fail
              (Printf.sprintf
                 "detected %d torn/corrupt generation(s); resume rolled back \
                  and still matched"
                 (List.length corrupt))
          else pass_))

(* Write three generations, then demand the newest *intact* one load
   with the exact payload it was saved with: a torn or corrupt latest
   generation must roll back to the previous good one — never crash,
   never hand back garbage.  Three saves exactly cover the injector's
   firing window, so an armed checkpoint fault is certain to fire and
   may land on any generation, including the latest. *)
let recovery_rollback ~jobs:_ =
  with_tmp_dir (fun dir ->
      let name = "roll" in
      let payloads =
        List.init 3 (fun i -> Printf.sprintf "generation-%d-payload" (i + 1))
      in
      List.iter
        (fun payload ->
          ignore
            (Ckpt.save ~dir ~name ~meta:(Ckpt.make_meta ~progress:0 ()) ~payload))
        payloads;
      let corrupt = corrupt_generations ~dir [ name ] in
      match Ckpt.load_latest ~dir ~name with
      | None -> fail "every generation rejected: nothing to roll back to"
      | Some loaded ->
          if
            loaded.Ckpt.generation < 1
            || loaded.Ckpt.generation > List.length payloads
            || loaded.Ckpt.payload
               <> List.nth payloads (loaded.Ckpt.generation - 1)
          then
            fail
              (Printf.sprintf
                 "generation %d loaded the wrong payload (corruption accepted?)"
                 loaded.Ckpt.generation)
          else if corrupt <> [] then
            fail
              (Printf.sprintf
                 "detected %d torn/corrupt generation(s); rolled back to \
                  generation %d intact"
                 (List.length corrupt) loaded.Ckpt.generation)
          else if loaded.Ckpt.generation <> List.length payloads then
            fail "newest generation intact but not the one loaded"
          else pass_)

(* ------------------------------------------------------------------ *)
(* Differential: each engine's bucketed similarity graph must be        *)
(* exactly the reference all-pairs graph over its [similar] — same node *)
(* order, same edge set.  States mix rounds and schedules so masked     *)
(* signatures collide and differ in both directions.                   *)

let graphs_equal (g : Graph.t) (h : Graph.t) =
  Graph.size g = Graph.size h
  && List.for_all
       (fun i -> Graph.neighbours g i = Graph.neighbours h i)
       (List.init (Graph.size g) Fun.id)

let simgraph_eq model ~jobs:_ =
  let module E = (val (Models.get ~caller:"Oracle" model).Models.engine ~t:1) in
  let initials = E.initial_states ~n:3 ~values:[ Value.zero; Value.one ] in
  let states = initials @ E.dedup (List.concat_map E.layer initials) in
  let _, reference = Simgraph.pairwise ~rel:E.similar states in
  let _, bucketed = E.similarity_graph states in
  if graphs_equal reference bucketed then pass_
  else
    fail
      (Printf.sprintf "builders disagree on %d states: pairwise %d edges, bucketed %d"
         (List.length states) (Graph.edge_count reference) (Graph.edge_count bucketed))

(* ------------------------------------------------------------------ *)
(* Symmetry: the orbit quotient must reconstruct the unreduced run.    *)
(* Both oracles take the fault-free reference BFS as ground truth,     *)
(* while the quotient leg runs through the pooled frontier, where all  *)
(* three frontier fault sites live (Drop_successor, Duplicate_state,   *)
(* Corrupt_dedup_shard), so every paired fault surfaces as a weighted  *)
(* count or orbit-set mismatch.                                        *)

module type SYM_INSTANCE = sig
  type state

  val depth : int
  val x0 : state
  val succ : state -> state list
  val key : state -> string
  val ident : state -> int
  val ckey : state -> string
  val weight : state -> int
end

let sym_instance () =
  let module E = (val (Models.get ~caller:"Oracle" "iis").Models.engine ~t:1) in
  let inputs = mixed_inputs 4 in
  (module struct
    type state = E.state

    let depth = 2
    let x0 = E.initial ~inputs
    let succ = E.layer
    let key = E.key
    let ident = E.ident
    let roles = Canon.roles_of ~eq:Value.equal inputs
    let ckey x = (E.canon ~roles x).Intern.ckey
    let weight x = (E.canon ~roles x).Intern.weight
  end : SYM_INSTANCE)

let sym_orbit_eq ~jobs =
  let module I = (val sym_instance ()) in
  let serial = reachable ~succ:I.succ ~key:I.key ~depth:I.depth I.x0 in
  Pool.with_pool ~jobs:(clamp jobs) (fun pool ->
      let quotient =
        (Frontier.reachable pool ~succ:I.succ ~ident:I.ident ~canon:I.ckey
           ~depth:I.depth I.x0)
          .Budget.value
      in
      let weighted = List.fold_left (fun a x -> a + I.weight x) 0 quotient in
      let serial_orbits = List.sort_uniq compare (List.map I.ckey serial) in
      let quotient_orbits = List.sort compare (List.map I.ckey quotient) in
      if List.length quotient >= List.length serial then
        fail
          (Printf.sprintf "no reduction: %d representatives vs %d raw states"
             (List.length quotient) (List.length serial))
      else if weighted <> List.length serial then
        fail
          (Printf.sprintf "orbit weights sum to %d, serial BFS visited %d"
             weighted (List.length serial))
      else if serial_orbits <> quotient_orbits then
        fail "representative orbits differ from the serial set's orbits"
      else pass_)

let sym_report_eq ~jobs =
  Pool.with_pool ~jobs:(clamp jobs) (fun pool ->
      let leg symmetry =
        let before = RStats.snapshot () in
        let sweep = Sweep.run ~pool ~symmetry ~model:"iis" ~n:4 ~t:1 ~depth:2 () in
        let d = RStats.diff (RStats.snapshot ()) before in
        (Format.asprintf "%a" Sweep.pp sweep, sweep, d.RStats.states_expanded)
      in
      let off_render, _, off_states = leg false in
      let on_render, on_sweep, on_states = leg true in
      let module I = (val sym_instance ()) in
      let serial =
        List.length (reachable ~succ:I.succ ~key:I.key ~depth:I.depth I.x0)
      in
      let final_reachable =
        match List.rev on_sweep.Sweep.levels with
        | l :: _ -> l.Sweep.reachable
        | [] -> -1
      in
      if on_render <> off_render then
        fail "symmetry-on report differs from the unreduced report"
      else if on_states >= off_states then
        fail
          (Printf.sprintf "symmetry expanded %d states, unreduced %d" on_states
             off_states)
      else if final_reachable <> serial then
        fail
          (Printf.sprintf "report says %d reachable, serial BFS visited %d"
             final_reachable serial)
      else pass_)

let all =
  [
    {
      name = "serial-parallel/sync";
      what = "serial and frontier BFS agree byte-for-byte (floodset S^t, n=3 t=1 d=3)";
      check = sp_sync;
    };
    {
      name = "serial-parallel/mobile";
      what = "serial and frontier BFS agree byte-for-byte (floodset S_1, n=3 t=1 d=2)";
      check = sp_mobile;
    };
    {
      name = "serial-parallel/tree";
      what = "serial and frontier BFS agree byte-for-byte (binary tree, 511 states)";
      check = sp_tree;
    };
    {
      name = "conservation/sync";
      what = "levels disjoint, union = serial reachable set, counts agree (n=4 t=1 d=2)";
      check = conservation_sync;
    };
    {
      name = "prefix/sync";
      what = "a states-capped frontier run is a prefix of the full run (n=4 t=1 d=3)";
      check = prefix_sync;
    };
    {
      name = "valence-perm/floodset";
      what = "valence classification of Con_0 is traversal-order invariant (S^t)";
      check = vp_floodset;
    };
    {
      name = "valence-perm/early";
      what = "valence classification of Con_0 is traversal-order invariant (early)";
      check = vp_early;
    };
    {
      name = "valence-perm/mobile";
      what = "valence classification of Con_0 is traversal-order invariant (S_1)";
      check = vp_mobile;
    };
    {
      name = "containment/map";
      what = "parallel_map never wedges or corrupts results; pool survives crashes";
      check = containment_map;
    };
    {
      name = "containment/frontier";
      what = "frontier BFS never wedges or corrupts results; pool survives crashes";
      check = containment_frontier;
    };
    {
      name = "containment/registry";
      what = "run_all yields every experiment's rows without a serial fallback";
      check = containment_registry;
    };
    {
      name = "complete/frontier";
      what = "a generous budget reports Complete on the frontier BFS";
      check = complete_frontier;
    };
    {
      name = "complete/consensus";
      what = "a generous budget reports Complete on the consensus checker";
      check = complete_consensus;
    };
    {
      name = "complete/omission";
      what = "a generous budget reports Complete on the omission checker";
      check = complete_omission;
    };
    {
      name = "timing/map";
      what = "four parallel_map passes finish under the wall-clock threshold";
      check = timing_map;
    };
    {
      name = "timing/frontier";
      what = "a frontier BFS finishes under the wall-clock threshold";
      check = timing_frontier;
    };
    {
      name = "timing/iter";
      what = "four parallel_iter passes finish under the wall-clock threshold";
      check = timing_iter;
    };
    {
      name = "cross-engine/kset";
      what = "one 2-set algorithm, three substrates: E19 invariants all pass";
      check = cross_engine_kset;
    };
    {
      name = "simgraph-eq/sync";
      what = "bucketed and pairwise similarity graphs identical (floodset S^t, n=3)";
      check = simgraph_eq "sync";
    };
    {
      name = "simgraph-eq/iis";
      what = "bucketed and pairwise similarity graphs identical (IIS voting, n=3)";
      check = simgraph_eq "iis";
    };
    {
      name = "simgraph-eq/sm";
      what = "bucketed and pairwise similarity graphs identical (S^rw voting, n=3)";
      check = simgraph_eq "sm";
    };
    {
      name = "simgraph-eq/mp";
      what = "bucketed and pairwise similarity graphs identical (S^per floodset, n=3)";
      check = simgraph_eq "mp";
    };
    {
      name = "simgraph-eq/smp";
      what = "bucketed and pairwise similarity graphs identical (synchronic MP, n=3)";
      check = simgraph_eq "smp";
    };
    {
      name = "resume-eq/frontier";
      what =
        "a states-capped BFS resumed from its checkpoint equals the uninterrupted run; every generation intact";
      check = resume_frontier;
    };
    {
      name = "resume-eq/registry";
      what =
        "a cancelled registry run resumed from per-experiment snapshots reports identically; every generation intact";
      check = resume_registry;
    };
    {
      name = "recovery/rollback";
      what =
        "the newest intact generation loads with its exact payload; torn/corrupt ones are rejected, never resumed from";
      check = recovery_rollback;
    };
    {
      name = "sym/orbit-eq";
      what =
        "orbit weights of the quotiented frontier reconstruct the serial unreduced reachable set (IIS, n=4 d=2)";
      check = sym_orbit_eq;
    };
    {
      name = "sym/report-eq";
      what =
        "--symmetry sweep reports byte-identical to unreduced with strictly fewer states expanded (IIS, n=4 d=2)";
      check = sym_report_eq;
    };
  ]
