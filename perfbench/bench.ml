(* End-to-end benchmark of the layered verifier, with per-layer
   attribution.

   Usage (from the repository root, normally through perfbench/run.py):

     bench.exe --workload oneshot|serve --seed N --seconds S --trace 0|1
     bench.exe --expected > perfbench/expected.txt

   Two workloads, each a fixed catalogue of operations.  The seed picks
   an order, never the catalogue, so every seed does the same work and
   the figures compare across seeds:

   - oneshot: what the one-shot CLI computes and prints, serially, each
     operation with its own engines and caches: the `layered all`
     experiments less its four exhaustive checkers (see [report_skip]),
     and large `layered layers` sweeps covering all six substrates (see
     [sweeps]).  One operation is one experiment or one sweep, run in a
     seeded order.  A cycle runs each once.
   - serve: the repository's saturation traffic (the
     `serve/saturation-*` kernels of bench/main.ml): a fresh in-process
     `layered serve` daemon with two pool jobs, so flights run on pool
     workers concurrently, and [saturation_matrix]'s four clients, each
     pipelining six distinct cold classification queries.  No two
     requests share a result-cache entry.  A request's latency runs from
     the epoch's first write to its reply, queueing included.  An epoch
     is one daemon: start, 24 requests, shutdown; a cycle is four
     epochs, one per rotation of the matrix rows (so every client goes
     first once), in a seeded order.

   Cycles run whole, in one stream, while the slowest so far still fits
   inside --seconds.

   Every output is checked against perfbench/expected.txt, the MD5 of the
   bytes the one-shot CLI prints for that query.  Reports are
   byte-identical across --jobs, daemon and CLI by contract, so a
   mismatch is a wrong answer, never noise.  Regenerate the file with
   --expected only after a deliberate output change.

   --trace 0 prints the end-to-end metrics.  oneshot: p50_ms and p99_ms
   (nearest rank) over each operation's best latency in the run, and
   cycle_s, their sum (every experiment and sweep once).  The hosts this
   runs on are shared, and a neighbour's load slows the CPUs for
   stretches of seconds by up to 1.9x, which a median over one run
   cannot remove but a best-of over its cycles mostly does.  serve:
   p50_ms and p99_ms over every request of the run (about a thousand),
   and cycle_s, the
   median epoch's slowest request (the time to answer all 24).  Here a
   best-of would not pick quiet stretches but lucky schedules: two
   workers sharing one valence memo order and overlap the flights
   differently in every epoch.  Both: setup_s, the fastest of several
   fresh processes that start up, load the expected table and stand up
   the workload's fixture (a bound, connected two-job daemon for serve),
   then exit.

   --trace 1 replays the same cycles, in one stream, through the daemon's
   request path in stages timed from here — decode, admit, result-cache
   probe, execute, encode — one request at a time, on a fresh dispatch
   context per oneshot cycle or serve epoch (oneshot operations become
   run-experiment and sweep requests, serve requests come in the order
   the daemon queues them), and reports per-request Stats
   counter deltas for the engine layers underneath (BFS expansion and
   dedup, interned state identity, simgraph candidates, valence memo)
   plus allocation. *)

open Layered_core
module Registry = Layered_analysis.Registry
module Sweep = Layered_analysis.Sweep
module Budget = Layered_runtime.Budget
module Pool = Layered_runtime.Pool
module Stats = Layered_runtime.Stats
module Protocol = Layered_serve.Protocol
module Server = Layered_serve.Server
module Client = Layered_serve.Client
module Dispatch = Layered_serve.Dispatch
module Admission = Layered_serve.Admission
module Cache = Layered_serve.Cache

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Catalogues *)

(* (model, n, t, depth): 20-450 ms each.  Operations stay under half a
   second so a run repeats each one often enough for its best latency to
   land in a quiet stretch; the 0.7-1 s sweeps (smp (6,1) and (4,1) at
   depths 2 and 3, mp (4,1) at depth 2) ran too few times for that. *)
let sweeps =
  [
    ("smp", 5, 1, 2); ("mp", 3, 2, 5); ("iis", 5, 1, 3); ("sm", 5, 1, 3);
    ("sync", 7, 2, 3); ("mobile", 6, 1, 3);
  ]

let sweep_query (model, n, t, depth) = Protocol.Sweep { model; n; t; depth }

(* The saturation matrix of bench/main.ml: one row of (model, n, depth)
   per client, 24 distinct triples of 5-250 ms cold classification at
   t = 1. *)
let saturation_matrix =
  [
    [ ("sync", 4, 5); ("mobile", 4, 4); ("sm", 3, 4); ("iis", 3, 3); ("mp", 3, 3); ("smp", 3, 3) ];
    [ ("sync", 4, 6); ("mobile", 4, 5); ("sm", 4, 3); ("iis", 4, 3); ("mp", 3, 4); ("smp", 3, 4) ];
    [ ("sync", 5, 4); ("mobile", 5, 4); ("sm", 4, 4); ("iis", 3, 4); ("sm", 5, 3); ("smp", 4, 3) ];
    [ ("sync", 5, 5); ("mobile", 6, 4); ("sm", 3, 5); ("iis", 4, 4); ("sync", 6, 5);
      ("mobile", 5, 5) ];
  ]
  |> List.map
       (List.map (fun (model, n, depth) -> Protocol.Classify_valence { model; n; t = 1; depth }))

(* E7, E9, E16 and E18 (exhaustive protocol verification and the
   thick-connectivity search) take 6.9 s of the full report's 10 s in
   single operations of 0.7-3 s.  A run holds too few repetitions of
   them for a best-of to escape a neighbour's load, so they are left out;
   the checkers and the topology search they exercise have no per-layer
   metric here either. *)
let report_skip = [ "E7"; "E9"; "E16"; "E18" ]

let report_experiments =
  List.filter (fun (e : Registry.experiment) -> not (List.mem e.id report_skip)) Registry.all

let serve_jobs = 2

let query_key = function
  | Protocol.Classify_valence { model; n; t; depth } ->
      Printf.sprintf "classify/%s/%d/%d/%d" model n t depth
  | Protocol.Sweep { model; n; t; depth } -> Printf.sprintf "sweep/%s/%d/%d/%d" model n t depth
  | Protocol.Run_experiment { id } -> "run/" ^ id
  | Protocol.Stats_query | Protocol.Shutdown -> invalid_arg "query_key"

(* ------------------------------------------------------------------ *)
(* Expected outputs *)

let expected_path = Filename.concat "perfbench" "expected.txt"

let load_expected () =
  let tbl = Hashtbl.create 64 in
  In_channel.with_open_text expected_path (fun ic ->
      In_channel.input_all ic |> String.split_on_char '\n'
      |> List.iter (fun line ->
             match String.split_on_char ' ' line with
             | [ key; hex ] -> Hashtbl.replace tbl key hex
             | _ -> ()));
  tbl

let md5 s = Digest.to_hex (Digest.string s)

(* Read-only after loading, so client domains may share it. *)
let matches expected key output = Hashtbl.find_opt expected key = Some (md5 output)

(* The block `layered all` prints for one experiment. *)
let report_block (e : Registry.experiment) rows =
  Format.asprintf "== %s: %s@.%a@." e.id e.title Report.pp_table rows

let sweep_output (model, n, t, depth) pool =
  let r = Sweep.run ~pool ~model ~n ~t ~depth () in
  (r.Sweep.status = Budget.Complete, Format.asprintf "%a" Sweep.pp r)

(* The daemon renders queries with these same functions. *)
let reference_output = function
  | Protocol.Classify_valence { model; n; t; depth } ->
      Dispatch.classify_output ~model ~n ~t ~depth ()
  | Protocol.Sweep { model; n; t; depth } -> Dispatch.sweep_output ~model ~n ~t ~depth ()
  | Protocol.Run_experiment { id } -> Dispatch.run_experiment_output ~id ()
  | Protocol.Stats_query | Protocol.Shutdown -> invalid_arg "reference_output"

let print_expected () =
  let pool = Pool.create ~jobs:1 () in
  let report =
    List.map
      (fun (e, rows) -> ("report/" ^ e.Registry.id, report_block e rows))
      (Registry.run_all ~pool report_experiments)
  in
  let queries =
    List.map
      (fun (e : Registry.experiment) -> Protocol.Run_experiment { id = e.id })
      report_experiments
    @ List.map sweep_query sweeps @ List.concat saturation_matrix
  in
  let rendered =
    List.map
      (fun q ->
        match reference_output q with
        | 0, out -> (query_key q, out)
        | code, _ -> failwith (Printf.sprintf "%s exited %d" (query_key q) code))
      queries
  in
  Pool.shutdown pool;
  List.sort_uniq compare (report @ rendered)
  |> List.iter (fun (key, out) -> Printf.printf "%s %s\n" key (md5 out))

(* ------------------------------------------------------------------ *)
(* Measurement *)

(* Nearest rank. *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile a 0.5

type tally = {
  best : (string, float) Hashtbl.t;  (** oneshot: kind -> best latency, seconds *)
  mutable latencies : float list;  (** serve: every request's *)
  mutable spans : float list;  (** serve: every epoch's slowest request *)
  mutable attempted : int;  (** outputs checked *)
  mutable failed : int;
}

let tally () =
  { best = Hashtbl.create 64; latencies = []; spans = []; attempted = 0; failed = 0 }

let check t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let record t dt ok =
  t.latencies <- dt :: t.latencies;
  check t ok

let record_best t kind dt ok =
  (match Hashtbl.find_opt t.best kind with
  | Some b when b <= dt -> ()
  | _ -> Hashtbl.replace t.best kind dt);
  check t ok

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Whole cycles only, while the slowest cycle so far still fits in the
   window; returns the number run. *)
let run_cycles ~seconds cycle =
  let t0 = now () in
  let rec go i slowest =
    let elapsed = now () -. t0 in
    if i = 0 || elapsed +. slowest <= seconds then begin
      cycle ();
      go (i + 1) (Float.max slowest (now () -. t0 -. elapsed))
    end
    else i
  in
  go 0 0.

(* Every timed operation starts from a compacted heap, so its cost does
   not depend on the garbage its predecessor left behind (without this,
   experiment order alone moves a whole report by ~15%). *)
let timed f =
  Gc.compact ();
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* --- oneshot ---------------------------------------------------------- *)

type oneshot = Experiment of Registry.experiment | Layers of (string * int * int * int)

let oneshot_ops =
  List.map (fun e -> Experiment e) report_experiments @ List.map (fun s -> Layers s) sweeps

let oneshot_cycle ~rng ~pool ~expected t () =
  List.iter
    (function
      | Experiment e ->
          let key = "report/" ^ e.Registry.id in
          let (rows, text), dt =
            timed (fun () ->
                let rows = List.concat_map snd (Registry.run_all ~pool [ e ]) in
                (rows, report_block e rows))
          in
          record_best t key dt (Report.all_pass rows && matches expected key text)
      | Layers s ->
          let key = query_key (sweep_query s) in
          let (complete, out), dt = timed (fun () -> sweep_output s pool) in
          record_best t key dt (complete && matches expected key out))
    (shuffle rng oneshot_ops)

(* --- serve ----------------------------------------------------------- *)

let work_dir = ".bench_work"

let socket_path () =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  Filename.concat work_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

let start_daemon path =
  let cfg =
    { (Server.default_config ~socket_path:path) with jobs = serve_jobs; install_signals = false }
  in
  let dom = Domain.spawn (fun () -> Server.run cfg) in
  let deadline = now () +. 10. in
  while (not (Sys.file_exists path)) && now () < deadline do
    Unix.sleepf 0.0002
  done;
  dom

let connect path =
  match Client.connect path with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ e)

let stop_daemon path dom =
  let c = connect path in
  let reply = Client.request c Protocol.Shutdown ~timeout_s:30. in
  Client.close c;
  (match reply with Ok _ -> () | Error e -> failwith ("shutdown: " ^ e));
  match Domain.join dom with
  | 0 -> ()
  | code -> failwith (Printf.sprintf "daemon exited %d" code)

(* The replies to one client's batch, which the daemon returns in
   request order per connection, read as they arrive.  Returns each
   request's latency from [t0] and whether its reply was right. *)
let read_replies ~expected ~t0 c ~base row =
  List.mapi
    (fun j q ->
      let reply = Client.read_lines c ~n:1 ~timeout_s:120. in
      let dt = now () -. t0 in
      let ok =
        match reply with
        | Ok [ line ] -> (
            match Protocol.decode_response line with
            | Ok (Protocol.Resp_ok { id = Some id; exit_code = 0; output }) ->
                id = base + j && matches expected (query_key q) output
            | _ -> false)
        | _ -> false
      in
      (dt, ok))
    row

(* One daemon epoch, the matrix rows taken in [rows]' order: connections
   opened and every batch written in that order from one thread, so the
   daemon is offered the 24 requests in one order (four racing writers
   would add their race to the schedule), then one reader per client.
   Returns every request's latency from the first write, and whether its
   reply was right. *)
let epoch ~expected ~path rows =
  let dom = start_daemon path in
  let batches = List.mapi (fun i row -> (connect path, i * 100, row)) rows in
  Gc.compact ();
  let t0 = now () in
  List.iter
    (fun (c, base, row) ->
      List.iteri
        (fun j q ->
          match Client.send c (Protocol.encode_request ~id:(base + j) q) with
          | Ok () -> ()
          | Error e -> failwith ("send: " ^ e))
        row)
    batches;
  let results =
    List.map
      (fun (c, base, row) -> Domain.spawn (fun () -> read_replies ~expected ~t0 c ~base row))
      batches
    |> List.concat_map Domain.join
  in
  List.iter (fun (c, _, _) -> Client.close c) batches;
  stop_daemon path dom;
  results

let rotations l =
  List.mapi (fun i _ -> List.filteri (fun j _ -> j >= i) l @ List.filteri (fun j _ -> j < i) l) l

(* A cycle runs one epoch per rotation of the matrix rows, so every
   client goes first once, in a seeded order. *)
let serve_cycle ~rng ~path ~expected t () =
  List.iter
    (fun rows ->
      let results = epoch ~expected ~path rows in
      List.iter (fun (dt, ok) -> record t dt ok) results;
      t.spans <- List.fold_left (fun m (dt, _) -> Float.max m dt) 0. results :: t.spans)
    (shuffle rng (rotations saturation_matrix))

(* ------------------------------------------------------------------ *)
(* Traced replay: the daemon's request path, stage by stage *)

type stages = {
  mutable decode : float;
  mutable admit : float;
  mutable probe : float;  (** result-cache lookup and fill *)
  mutable execute : float;
  mutable encode : float;
  mutable requests : int;
}

(* Mirrors Dispatch.handle for a compute request, with a clock read at
   each stage boundary; execution takes the concurrent dispatcher's task
   body, as the daemon runs it. *)
let staged ctx st ~expected ~id q =
  let line = Protocol.encode_request ~id q in
  let t0 = now () in
  let decoded = Protocol.decode_request line in
  let t1 = now () in
  let req = match decoded with Ok (_, req) -> req | Error _ -> failwith "decode" in
  let decision = Admission.decide Admission.default ~pending:0 ~client_pending:0 in
  let t2 = now () in
  let budget =
    match decision with Admission.Admit b -> b | Admission.Shed _ -> failwith "shed"
  in
  let key = Option.get (Protocol.cache_key req) in
  let cached = Cache.find ctx.Dispatch.rcache key in
  let t3 = now () in
  let exit_code, output =
    match cached with
    | Some { Cache.exit_code; output } -> (exit_code, output)
    | None -> Dispatch.execute_concurrent ctx ~budget req
  in
  let t4 = now () in
  if cached = None && exit_code <> Dispatch.exit_trunc then
    Cache.add ctx.Dispatch.rcache key { Cache.exit_code; output };
  let t5 = now () in
  let resp = Protocol.encode_response (Protocol.Resp_ok { id = Some id; exit_code; output }) in
  let t6 = now () in
  st.decode <- st.decode +. (t1 -. t0);
  st.admit <- st.admit +. (t2 -. t1);
  st.probe <- st.probe +. (t3 -. t2) +. (t5 -. t4);
  st.execute <- st.execute +. (t4 -. t3);
  st.encode <- st.encode +. (t6 -. t5);
  st.requests <- st.requests + 1;
  match Protocol.decode_response resp with
  | Ok (Protocol.Resp_ok { exit_code = 0; output = sent; _ }) ->
      sent = output && matches expected (query_key q) output
  | _ -> false

(* The request lists a traced cycle replays, each on a fresh dispatch
   context: the workload's cycle as daemon requests, a serve epoch's in
   the order the daemon queues them. *)
let traced_epochs ~rng = function
  | "oneshot" ->
      [
        List.map
          (function
            | Experiment e -> Protocol.Run_experiment { id = e.Registry.id }
            | Layers s -> sweep_query s)
          (shuffle rng oneshot_ops);
      ]
  | _ -> List.map List.concat (shuffle rng (rotations saturation_matrix))

(* ------------------------------------------------------------------ *)
(* Output *)

let print_result ~attempted ~failed metrics =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else failwith "non-finite metric"
  in
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num value) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0 && attempted > 0)
    attempted failed (String.concat ", " fields)

(* A fresh process per sample, so module initialisation counts too.  A
   few milliseconds of process start-up are mostly scheduler noise, so
   the figure is the fastest sample. *)
let setup_samples = 51

let measure_setup workload =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let sample () =
    let (), dt =
      timed (fun () ->
          let pid =
            Unix.create_process Sys.executable_name
              [| Sys.executable_name; "--setup-only"; "--workload"; workload |]
              Unix.stdin devnull Unix.stderr
          in
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> failwith "setup process failed")
    in
    dt
  in
  let samples = List.init setup_samples (fun _ -> sample ()) in
  Unix.close devnull;
  List.fold_left Float.min Float.infinity samples

let setup_only workload =
  ignore (load_expected ());
  match workload with
  | "serve" ->
      let path = socket_path () in
      let dom = start_daemon path in
      List.iter Client.close (List.map (fun _ -> connect path) saturation_matrix);
      stop_daemon path dom
  | _ -> Pool.shutdown (Pool.create ~jobs:1 ())

let end_to_end ~workload ~seed ~seconds =
  let expected = load_expected () in
  let rng = Random.State.make [| seed |] in
  let t = tally () in
  let pool = Pool.create ~jobs:1 () in
  let cycle =
    match workload with
    | "oneshot" -> oneshot_cycle ~rng ~pool ~expected t
    | _ -> serve_cycle ~rng ~path:(socket_path ()) ~expected t
  in
  let cycles = run_cycles ~seconds cycle in
  Pool.shutdown pool;
  let setup_s = measure_setup workload in
  Printf.eprintf "%s: %d operations in %d cycles, %d wrong\n%!" workload t.attempted cycles
    t.failed;
  let p50, p99, cycle_s =
    match workload with
    | "oneshot" ->
        let best = Array.of_seq (Hashtbl.to_seq_values t.best) in
        Array.sort compare best;
        (percentile best 0.5, percentile best 0.99, Array.fold_left ( +. ) 0. best)
    | _ ->
        let lat = Array.of_list t.latencies in
        Array.sort compare lat;
        (percentile lat 0.5, percentile lat 0.99, median t.spans)
  in
  print_result ~attempted:t.attempted ~failed:t.failed
    [
      ("p50_ms", 1e3 *. p50, "ms");
      ("p99_ms", 1e3 *. p99, "ms");
      ("cycle_s", cycle_s, "s");
      ("setup_s", setup_s, "s");
    ]

let traced ~workload ~seed ~seconds =
  let expected = load_expected () in
  let rng = Random.State.make [| seed |] in
  let t = tally () in
  let st = { decode = 0.; admit = 0.; probe = 0.; execute = 0.; encode = 0.; requests = 0 } in
  let pool = Pool.create ~jobs:1 () in
  Stats.reset ();
  let words0 = Gc.minor_words () in
  let cycles =
    run_cycles ~seconds (fun () ->
      List.iter
        (fun requests ->
          Gc.compact ();
          let ctx = Dispatch.create_ctx ~pool ~admission:Admission.default () in
          List.iteri (fun id q -> check t (staged ctx st ~expected ~id q)) requests)
        (traced_epochs ~rng workload))
  in
  Printf.eprintf "%s traced: %d requests in %d cycles, %d wrong\n%!" workload st.requests
    cycles t.failed;
  let words = Gc.minor_words () -. words0 in
  let s = Stats.snapshot () in
  Pool.shutdown pool;
  let per_req x = float_of_int x /. float_of_int st.requests in
  let mean_s x = x /. float_of_int st.requests in
  print_result ~attempted:t.attempted ~failed:t.failed
    [
      ("decode_us", 1e6 *. mean_s st.decode, "us");
      ("admit_us", 1e6 *. mean_s st.admit, "us");
      ("cache_probe_us", 1e6 *. mean_s st.probe, "us");
      ("execute_ms", 1e3 *. mean_s st.execute, "ms");
      ("encode_us", 1e6 *. mean_s st.encode, "us");
      ("states_expanded", per_req s.Stats.states_expanded, "count");
      ("dedup_hits", per_req s.Stats.dedup_hits, "count");
      ("interned_states", per_req s.Stats.interned_states, "count");
      ("intern_hits", per_req s.Stats.intern_hits, "count");
      ("simgraph_candidates", per_req s.Stats.simgraph_candidates, "count");
      ("valence_cache_hits", per_req s.Stats.valence_cache_hits, "count");
      ("valence_cache_misses", per_req s.Stats.valence_cache_misses, "count");
      ("alloc_mwords", words /. 1e6 /. float_of_int st.requests, "Mword");
    ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let mode = ref `Run in
  Arg.parse
    [
      ("--workload", Arg.Symbol ([ "oneshot"; "serve" ], ( := ) workload), " workload");
      ("--seed", Arg.Set_int seed, "N seed for the operation order");
      ("--seconds", Arg.Set_int seconds, "S measuring window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--setup-only", Arg.Unit (fun () -> mode := `Setup), " stand up the fixture and exit");
      ("--expected", Arg.Unit (fun () -> mode := `Expected), " print the expected-output table");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload oneshot|serve --seed N --seconds S --trace 0|1";
  let need_workload () = if !workload = "" then (prerr_endline "--workload is required"; exit 2) in
  match !mode with
  | `Expected -> print_expected ()
  | `Setup ->
      need_workload ();
      setup_only !workload
  | `Run ->
      need_workload ();
      let seconds = float_of_int !seconds in
      if !trace = 0 then end_to_end ~workload:!workload ~seed:!seed ~seconds
      else traced ~workload:!workload ~seed:!seed ~seconds
