(* Command-line driver: run the paper-reproduction experiments.

   Usage:
     layered list              enumerate experiments
     layered run E7 [E9 ...]   run selected experiments
     layered all               run everything and summarise
     layered all --markdown    emit the EXPERIMENTS.md table body
     layered verify -p early -n 4 -t 2
                               exhaustively verify a consensus protocol
     layered layers -m mp -n 3 -d 2
                               state-growth / layer-size sweep
     layered chain -m iis -n 3 -l 6
                               print an ever-bivalent adversary strategy
     layered graph con0 -n 3   DOT export of an analysed structure *)

open Layered_core
open Layered_analysis
open Layered_check
module Pool = Layered_runtime.Pool
module Stats = Layered_runtime.Stats
module Budget = Layered_runtime.Budget

let print_rows ~markdown rows =
  if markdown then print_string (Report.to_markdown rows)
  else Format.printf "%a" Report.pp_table rows

(* Counter snapshots go to stderr so that --stats never perturbs the
   (byte-identical across job counts) stdout streams. *)
let print_stats stats = if stats then Format.eprintf "%a" Stats.pp (Stats.snapshot ())

(* An interrupted run always dumps the counters: they are the only
   record of how far the cancelled work got. *)
let finish_stats ~stats budget =
  print_stats (stats || Budget.tripped budget = Some Budget.Interrupted)

(* Exit-code contract: 0 all checks passed, 1 a check failed (a
   counterexample is definitive even on a truncated run), 3 truncated
   with no failure (a clean verdict from a partial exploration is not a
   pass). *)
let exit_trunc = 3

(* Checkpoint flags shared by the run/all/layers commands.  All resume
   diagnostics go to stderr: stdout of a resumed run must stay
   byte-identical to an uninterrupted one. *)
type ckpt_opts = { ckpt_dir : string option; ckpt_every : int; ckpt_resume : bool }

(* [--resume] without a directory has nothing to resume from; reject it
   rather than silently running cold.  Exit 2 = usage error (0/1/3 keep
   their meanings on a resumed run). *)
let ckpt_invalid c =
  if c.ckpt_resume && c.ckpt_dir = None then begin
    Format.eprintf "layered: --resume requires --checkpoint-dir.@.";
    true
  end
  else false

let ckpt_hint budget c =
  match (Budget.tripped budget, c.ckpt_dir) with
  | Some _, Some dir ->
      Format.eprintf "checkpoint: resumable snapshots in %s (rerun with --resume)@." dir
  | _ -> ()

let run_experiments experiments markdown jobs stats budget ckpt =
  let experiments = match experiments with [] -> Registry.all | es -> es in
  if ckpt_invalid ckpt then 2
  else begin
  let checkpoint =
    Option.map
      (fun dir -> { Registry.dir; resume = ckpt.ckpt_resume })
      ckpt.ckpt_dir
  in
  Stats.reset ();
  let results =
    Pool.with_pool ~jobs ~budget (fun pool ->
        Registry.run_all ~pool ~budget ?checkpoint experiments)
  in
  let rows =
    List.concat_map
      (fun ((e : Registry.experiment), rows) ->
        Format.printf "== %s: %s@." e.id e.title;
        print_rows ~markdown rows;
        Format.printf "@.";
        rows)
      results
  in
  (match Budget.tripped budget with
  | Some reason ->
      Format.printf "TRUNCATED: budget exhausted (%a); the report above is partial.@."
        Budget.pp_reason reason
  | None -> ());
  ckpt_hint budget ckpt;
  finish_stats ~stats budget;
  if not (Report.all_pass rows) then begin
    Format.printf "FAILURES among %d checks.@." (List.length rows);
    1
  end
  else
    match Budget.tripped budget with
    | Some _ -> exit_trunc
    | None ->
        Format.printf "All %d checks passed.@." (List.length rows);
        0
  end

open Cmdliner

let markdown =
  Arg.(value & flag & info [ "markdown" ] ~doc:"Print result tables as markdown.")

(* Bounds are rejected at parse time, with the offending flag named by
   cmdliner, rather than surfacing later as an exception (or a hang)
   from deep inside an engine. *)
let bounded_int ~min ~what =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= min -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "%s must be at least %d, got %d" what min n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let positive_float ~what =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when x > 0.0 -> Ok x
    | Ok x -> Error (`Msg (Printf.sprintf "%s must be positive, got %g" what x))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* A name argument parsed against the one table it is looked up in, so
   a misspelled name is a usage error rather than an exception from
   deep inside a command. *)
let name_conv ~what ~hint find name_of =
  let parse s =
    match find s with
    | Some x -> Ok x
    | None -> Error (`Msg (Printf.sprintf "unknown %s %S (%s)" what s hint))
  in
  Arg.conv (parse, fun ppf x -> Format.pp_print_string ppf (name_of x))

(* A closed set of names, matched exactly: cmdliner's [enum] would take
   any unambiguous prefix. *)
let exact_conv ~what choices =
  name_conv ~what ~hint:(String.concat " | " (List.map fst choices))
    (fun s -> List.assoc_opt s choices)
    (fun x -> fst (List.find (fun (_, y) -> y = x) choices))

let jobs_arg =
  Arg.(
    value
    & opt (bounded_int ~min:1 ~what:"jobs") 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains for parallel execution (1 = serial; results are identical).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print the runtime counter snapshot to stderr when done.")

(* Symmetry reduction is an opt-in because it changes which states are
   materialised (orbit representatives) even though the printed report
   is byte-identical; the flag is recorded in checkpoint meta so
   snapshots never cross the setting. *)
let symmetry_arg =
  Arg.(
    value & flag
    & info [ "symmetry" ]
        ~doc:
          "Quotient the BFS frontier by role-respecting process-renaming \
           symmetry, on the models whose row in the model table declares \
           renaming closure (currently $(b,iis)); the test suite checks \
           that declaration against every row.  One representative per \
           orbit is explored; reported rows are byte-identical to the \
           unreduced sweep (orbit-weighted counts), but strictly fewer \
           states are materialised — see the $(b,orbit hits) and \
           $(b,states expanded) counters under $(b,--stats).  On the other \
           models the quotient would be unsound and the flag is a no-op.  \
           Checkpoints record the setting and refuse to resume across it.")

(* Every budgeted command gets a Budget.t even when no limit flag is
   given: the token doubles as the SIGINT cancellation point, and an
   unlimited budget costs nothing on the hot paths. *)
let budget_term =
  let timeout =
    Arg.(
      value
      & opt (some (positive_float ~what:"timeout")) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Wall-clock budget in seconds; on expiry the run stops at the next \
             safepoint and reports the completed prefix (exit code 3).")
  in
  let max_states =
    Arg.(
      value
      & opt (some (bounded_int ~min:1 ~what:"max-states")) None
      & info [ "max-states" ] ~docv:"N"
          ~doc:
            "Stop after visiting N states.  Applied at level boundaries in parallel \
             sweeps, so the truncation point is identical for every $(b,--jobs) count.")
  in
  let max_mem =
    Arg.(
      value
      & opt (some (bounded_int ~min:1 ~what:"max-mem")) None
      & info [ "max-mem" ] ~docv:"MB"
          ~doc:
            "Stop when the OCaml heap exceeds MB megabytes (sampled watermark, not a \
             hard cap).")
  in
  let mem_soft =
    Arg.(
      value
      & opt (some (bounded_int ~min:1 ~what:"mem-soft")) None
      & info [ "mem-soft" ] ~docv:"MB"
          ~doc:
            "Soft memory watermark in megabytes, below $(b,--max-mem): at every BFS \
             level boundary where the OCaml heap is above MB megabytes, the heap is \
             compacted (counted under $(b,memory soft events) and $(b,gc compactions) \
             in $(b,--stats)).  Never truncates a run and never changes its output.")
  in
  let make timeout_s max_states max_memory_mb soft_memory_mb =
    Budget.create ?timeout_s ?max_states ?max_memory_mb ?soft_memory_mb ()
  in
  Term.(const make $ timeout $ max_states $ max_mem $ mem_soft)

let ckpt_term =
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Write crash-safe, CRC-checksummed snapshots of run progress into DIR \
             (created if missing; each save is a new generation, written atomically). \
             $(b,run)/$(b,all) snapshot each experiment's rows as it completes; \
             $(b,layers) snapshots the BFS level prefix.")
  in
  let every =
    Arg.(
      value
      & opt (bounded_int ~min:1 ~what:"checkpoint-every") 1
      & info [ "checkpoint-every" ] ~docv:"K"
          ~doc:
            "Snapshot every K completed BFS levels (always at level boundaries, so \
             snapshot content is identical across $(b,--jobs)).  Used by $(b,layers); \
             experiment runs snapshot per experiment regardless.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the newest intact generation in $(b,--checkpoint-dir) \
             (torn or corrupt generations are skipped).  Work not covered by a \
             snapshot is re-run; output and exit codes are identical to an \
             uninterrupted run.")
  in
  Term.(
    const (fun ckpt_dir ckpt_every ckpt_resume -> { ckpt_dir; ckpt_every; ckpt_resume })
    $ dir $ every $ resume)

let list_cmd =
  let doc = "List available experiments." in
  let f () =
    List.iter
      (fun (e : Registry.experiment) -> Format.printf "%-4s %s@." e.id e.title)
      Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const f $ const ())

let run_cmd =
  let doc = "Run selected experiments (by id, e.g. E7)." in
  let experiment =
    name_conv ~what:"experiment" ~hint:"try `layered list`" Registry.find
      (fun (e : Registry.experiment) -> e.id)
  in
  let ids = Arg.(value & pos_all experiment [] & info [] ~docv:"ID") in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_experiments $ ids $ markdown $ jobs_arg $ stats_arg $ budget_term
      $ ckpt_term)

let all_cmd =
  let doc = "Run every experiment." in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(
      const run_experiments $ const [] $ markdown $ jobs_arg $ stats_arg $ budget_term
      $ ckpt_term)

let n_arg =
  Arg.(
    value
    & opt (bounded_int ~min:2 ~what:"n") 3
    & info [ "n" ] ~docv:"N" ~doc:"Number of processes (at least 2).")

let t_arg =
  Arg.(
    value
    & opt (bounded_int ~min:0 ~what:"t") 1
    & info [ "t" ] ~docv:"T" ~doc:"Resilience / horizon (at least 0).")

(* The substrate a layers/chain/classify run works on: a row of the
   model table. *)
let model_arg ~default =
  let model =
    name_conv ~what:"model" ~hint:(String.concat " | " Models.names)
      (fun s -> Option.map (fun (r : Models.t) -> r.name) (Models.find s))
      Fun.id
  in
  Arg.(
    value
    & opt model default
    & info [ "m"; "model" ] ~docv:"MODEL" ~doc:(String.concat " | " Models.names))

let verify_cmd =
  let doc =
    "Exhaustively verify a synchronous consensus protocol against every adversary of the \
     chosen failure model."
  in
  let protocol =
    Arg.(
      value
      & opt
          (exact_conv ~what:"protocol"
             [
               ("floodset", `Floodset); ("eig", `Eig); ("early", `Early);
               ("clean", `Clean); ("uniform", `Uniform); ("coordinator", `Coordinator);
             ])
          `Floodset
      & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
          ~doc:"floodset | eig | early | clean | uniform | coordinator")
  in
  let failures =
    Arg.(
      value
      & opt
          (exact_conv ~what:"failure model"
             [
               ("crash", Consensus_check.Crash); ("omission", Consensus_check.Omission);
               ("general", Consensus_check.General_omission);
             ])
          Consensus_check.Crash
      & info [ "model" ] ~docv:"MODEL" ~doc:"crash | omission | general (omission)")
  in
  let rounds =
    Arg.(value & opt (some (bounded_int ~min:0 ~what:"rounds")) None
         & info [ "r"; "rounds" ] ~docv:"R"
             ~doc:"Rounds to explore (default: the protocol's decision round + 1).")
  in
  let max_new =
    Arg.(
      value
      & opt (bounded_int ~min:0 ~what:"max-new") 2
      & info [ "m"; "max-new" ] ~docv:"M" ~doc:"Maximum fresh failures per round (at least 0).")
  in
  let f protocol failures n t rounds max_new budget =
    let protocol, default_rounds =
      match protocol with
      | `Floodset -> (Layered_protocols.Sync_floodset.make ~t, t + 2)
      | `Eig -> (Layered_protocols.Sync_eig.make ~t, t + 2)
      | `Early -> (Layered_protocols.Sync_early.make ~t, t + 2)
      | `Clean -> (Layered_protocols.Sync_clean.make ~t, t + 2)
      | `Uniform -> (Layered_protocols.Sync_uniform.make ~t, t + 3)
      | `Coordinator -> (Layered_protocols.Sync_coordinator.make ~t, (3 * (t + 1)) + 1)
    in
    let rounds = Option.value rounds ~default:default_rounds in
    let r =
      Budget.with_sigint budget (fun () ->
          Consensus_check.check ~protocol ~failures ~n ~t ~rounds ~max_new ~budget ())
    in
    Format.printf "%a@." Consensus_check.pp_result r;
    if not (r.agreement_ok && r.validity_ok && r.termination_ok) then 1
    else match r.status with Budget.Complete -> 0 | _ -> exit_trunc
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(const f $ protocol $ failures $ n_arg $ t_arg $ rounds $ max_new $ budget_term)

let layers_cmd =
  let doc = "Sweep a substrate: reachable states and layer sizes per depth." in
  let model = model_arg ~default:"sync" in
  let depth =
    Arg.(
      value
      & opt (bounded_int ~min:0 ~what:"depth") 2
      & info [ "d"; "depth" ] ~docv:"D" ~doc:"Layers to explore (at least 0).")
  in
  let f model n t depth jobs stats budget ckpt symmetry =
    if ckpt_invalid ckpt then 2
    else begin
      let checkpoint =
        Option.map
          (fun dir ->
            { Sweep.dir; every = ckpt.ckpt_every; resume = ckpt.ckpt_resume })
          ckpt.ckpt_dir
      in
      Stats.reset ();
      match
        Pool.with_pool ~jobs ~budget (fun pool ->
            Sweep.run ~pool ~budget ?checkpoint ~symmetry ~model ~n ~t ~depth ())
      with
      | exception Layered_runtime.Checkpoint.Symmetry_mismatch
            { saved; requested } ->
          (* Structured refusal: the snapshot's levels belong to the
             other dedup discipline; resuming would misread them. *)
          Format.eprintf
            "layered: error=checkpoint-symmetry-mismatch saved=%s \
             requested=%s@.layered: rerun with the matching --symmetry \
             setting or point --checkpoint-dir elsewhere.@."
            (if saved then "on" else "off")
            (if requested then "on" else "off");
          2
      | sweep ->
          Format.printf "%a" Sweep.pp sweep;
          ckpt_hint budget ckpt;
          finish_stats ~stats budget;
          (match sweep.Sweep.status with
          | Budget.Complete -> 0
          | _ -> exit_trunc)
    end
  in
  Cmd.v (Cmd.info "layers" ~doc)
    Term.(
      const f $ model $ n_arg $ t_arg $ depth $ jobs_arg $ stats_arg $ budget_term
      $ ckpt_term $ symmetry_arg)

let chain_cmd =
  let doc =
    "Construct an ever-bivalent run (Theorem 4.2) and print the adversary's strategy."
  in
  let model = model_arg ~default:"mobile" in
  let length =
    Arg.(
      value
      & opt (bounded_int ~min:2 ~what:"length") 6
      & info [ "l"; "length" ] ~docv:"L" ~doc:"Chain length in states (at least 2).")
  in
  let f model n t length =
    Format.printf "%a" Chains.pp (Chains.run ~model ~n ~t ~length);
    0
  in
  Cmd.v (Cmd.info "chain" ~doc) Term.(const f $ model $ n_arg $ t_arg $ length)

let graph_cmd =
  let doc = "Emit a Graphviz (DOT) rendering of an analysed structure." in
  let what =
    Arg.(
      required
      & pos 0
          (some
             (exact_conv ~what:"structure"
                [ ("con0", `Con0); ("layer", `Layer); ("task", `Task) ]))
          None
      & info [] ~docv:"WHAT" ~doc:"con0 | layer | task")
  in
  let task =
    Arg.(
      value
      & opt
          (name_conv ~what:"task" ~hint:(String.concat " | " Export.task_names)
             (fun s -> List.find_opt (String.equal s) Export.task_names)
             Fun.id)
          "consensus"
      & info [ "task" ] ~docv:"TASK" ~doc:(String.concat " | " Export.task_names))
  in
  let f what n t task =
    let dot =
      match what with
      | `Con0 -> Export.con0_similarity ~n ~t
      | `Layer -> Export.st_layer ~n ~t
      | `Task -> Export.task_thickness ~name:task ~n
    in
    print_string dot;
    0
  in
  Cmd.v (Cmd.info "graph" ~doc) Term.(const f $ what $ n_arg $ t_arg $ task)

let oracles_cmd =
  let doc = "Run the differential/metamorphic runtime oracles." in
  let oracle =
    name_conv ~what:"oracle" ~hint:"see `layered oracles` output" Chaos.find
      (fun (o : Oracle.t) -> o.name)
  in
  let names =
    Arg.(
      value & pos_all oracle []
      & info [] ~docv:"NAME"
          ~doc:"Oracle names to run (default: all); see $(b,layered oracles) output.")
  in
  let f oracles jobs =
    let names =
      match oracles with
      | [] -> None
      | os -> Some (List.map (fun (o : Oracle.t) -> o.name) os)
    in
    let rows = Chaos.rows ~jobs ?names () in
    Format.printf "%a" Report.pp_table rows;
    if rows <> [] && Report.all_pass rows then 0 else 1
  in
  Cmd.v (Cmd.info "oracles" ~doc) Term.(const f $ names $ jobs_arg)

let chaos_cmd =
  let doc =
    "Seeded fault-injection trials: every armed fault must be caught by its paired \
     oracles, every disarmed control must pass."
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Base seed; trial $(i,i) arms with seed+i.")
  in
  let trials =
    Arg.(
      value
      & opt (some (bounded_int ~min:1 ~what:"trials")) None
      & info [ "trials" ] ~docv:"N"
          ~doc:
            "Number of trials, assigned round-robin over the (site, oracle) pairing \
             table (default: one per cell of the selected $(b,--faults) sites); \
             fewer trials than pairs leaves cells uncovered, which fails.")
  in
  let faults =
    let site_conv =
      let parse s =
        match Layered_runtime.Fault.site_of_name s with
        | Some site -> Ok site
        | None ->
            Error
              (`Msg
                 (Printf.sprintf "unknown fault site %S (known: %s)" s
                    (String.concat ", "
                       (List.map Layered_runtime.Fault.site_name
                          Layered_runtime.Fault.all))))
      in
      Arg.conv (parse, fun ppf s -> Layered_runtime.Fault.pp_site ppf s)
    in
    Arg.(
      value
      & opt (list site_conv) Layered_runtime.Fault.all
      & info [ "faults" ] ~docv:"SITE,..."
          ~doc:"Comma-separated fault sites to inject (default: all).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as one JSON object.")
  in
  let f seed trials sites jobs json =
    let r = Chaos.run ~jobs ~sites ?trials ~seed () in
    if json then print_string (Chaos.to_json r)
    else Format.printf "@[<v>%a@]@." Chaos.pp r;
    if Chaos.ok r then 0 else 1
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const f $ seed $ trials $ faults $ jobs_arg $ json)

let classify_cmd =
  let doc =
    "Classify the valence of every binary initial state of a substrate (the \
     one-shot twin of the daemon's classify-valence query)."
  in
  let model = model_arg ~default:"sync" in
  let depth =
    Arg.(
      value
      & opt (bounded_int ~min:0 ~what:"depth") 3
      & info [ "d"; "depth" ] ~docv:"D" ~doc:"Exploration depth (at least 0).")
  in
  let f model n t depth stats =
    Stats.reset ();
    Format.printf "%a" Valence_query.pp (Valence_query.run ~model ~n ~t ~depth ());
    print_stats stats;
    0
  in
  Cmd.v (Cmd.info "classify" ~doc)
    Term.(const f $ model $ n_arg $ t_arg $ depth $ stats_arg)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let doc =
    "Run the persistent verification daemon: line-delimited JSON queries over a \
     Unix-domain socket, shared valence and result caches, admission control."
  in
  let queue_cap =
    Arg.(
      value
      & opt (bounded_int ~min:1 ~what:"queue-cap") 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Shed compute requests queued more than N deep (overloaded response).")
  in
  let max_heap =
    Arg.(
      value
      & opt (bounded_int ~min:1 ~what:"max-heap") 1024
      & info [ "max-heap" ] ~docv:"MB"
          ~doc:
            "Shed new compute requests while the OCaml heap exceeds MB megabytes; \
             admitted requests truncate at the same watermark.")
  in
  let request_timeout =
    Arg.(
      value
      & opt float 10.
      & info [ "request-timeout" ] ~docv:"SECS"
          ~doc:
            "Per-request deadline for sweep and run-experiment queries (exit 3 in \
             the response when it trips); 0 disables it.")
  in
  let idle_timeout =
    Arg.(
      value
      & opt float 30.
      & info [ "idle-timeout" ] ~docv:"SECS"
          ~doc:
            "Slow-loris deadline: drop a connection holding a partial request \
             line longer than SECS (structured timeout error first); 0 disables \
             it.")
  in
  let spill_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "spill-dir" ] ~docv:"DIR"
          ~doc:
            "Warm-cache durability: reload the shared caches from DIR at \
             startup and spill them back through the checkpoint format, \
             periodically and on drain.")
  in
  let spill_every =
    Arg.(
      value
      & opt (bounded_int ~min:0 ~what:"spill-every") 32
      & info [ "spill-every" ] ~docv:"N"
          ~doc:
            "With --spill-dir, spill the caches after every N responses \
             (0 = on drain only).")
  in
  let spill_keep =
    Arg.(
      value
      & opt (bounded_int ~min:1 ~what:"spill-keep")
          Layered_serve.Spill.keep_generations
      & info [ "spill-keep" ] ~docv:"N"
          ~doc:
            "With --spill-dir, keep the N newest spill generations on disk \
             after each save (at least 1).")
  in
  let client_cap =
    Arg.(
      value
      & opt (bounded_int ~min:0 ~what:"client-cap") 16
      & info [ "client-cap" ] ~docv:"N"
          ~doc:
            "Shed compute requests from a connection that already has N of \
             its own in flight (overloaded response, reason per-client); 0 \
             disables the cap.")
  in
  let supervise =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Fork the daemon under a supervisor: abnormal exits respawn it \
             (same socket, warm caches via --spill-dir) after a jittered \
             exponential backoff; a crash loop trips a circuit breaker. \
             SIGTERM/SIGINT to the supervisor drain the daemon cleanly.")
  in
  let max_restarts =
    Arg.(
      value
      & opt (bounded_int ~min:0 ~what:"max-restarts") 5
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:
            "Circuit breaker for --supervise: give up after more than N \
             crashes inside a 30 s sliding window.")
  in
  let pid_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "pid-file" ] ~docv:"PATH"
          ~doc:
            "With --supervise, rewrite PATH with the daemon pid after every \
             (re)spawn.")
  in
  let f socket jobs stats queue_cap max_heap request_timeout client_cap
      idle_timeout spill_dir spill_every spill_keep supervise max_restarts
      pid_file =
    let cfg =
      {
        Layered_serve.Server.socket_path = socket;
        jobs;
        queue_cap;
        max_heap_mb = max_heap;
        request_timeout_s = request_timeout;
        per_client_cap = client_cap;
        idle_timeout_s = idle_timeout;
        spill_dir;
        spill_every;
        spill_keep;
        stats;
        install_signals = true;
      }
    in
    if not supervise then Layered_serve.Server.run cfg
    else
      let outcome =
        Layered_serve.Supervisor.run_forked
          ~config:
            {
              Layered_serve.Supervisor.default with
              max_restarts;
              pid_file;
            }
          (fun () -> Layered_serve.Server.run cfg)
      in
      outcome.Layered_serve.Supervisor.exit_code
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const f $ socket_arg $ jobs_arg $ stats_arg $ queue_cap $ max_heap
      $ request_timeout $ client_cap $ idle_timeout $ spill_dir $ spill_every
      $ spill_keep $ supervise $ max_restarts $ pid_file)

let serve_client_cmd =
  let doc =
    "Send request lines from stdin to a running daemon and print each response \
     line to stdout (a minimal client for scripts and smoke tests)."
  in
  let output_only =
    Arg.(
      value & flag
      & info [ "output-only" ]
          ~doc:
            "Print the decoded $(b,output) field of ok responses instead of raw \
             response lines (diffs directly against the one-shot CLI); any error \
             or overloaded response fails the client.")
  in
  let timeout =
    Arg.(
      value
      & opt (positive_float ~what:"timeout") 30.
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:"Per-request deadline, reconnects and replays included.")
  in
  let retry_overloaded =
    Arg.(
      value & flag
      & info [ "retry-overloaded" ]
          ~doc:
            "When the daemon sheds a request, sleep its retry-after hint and \
             re-send instead of failing.")
  in
  let pipeline =
    Arg.(
      value & flag
      & info [ "pipeline" ]
          ~doc:
            "Send every request line from stdin before reading any response \
             (one response line expected per request, $(b,--timeout) covers \
             the whole batch).  Exercises the daemon's admission and \
             fair-share paths, which a one-at-a-time exchange never fills; \
             forgoes the crash-replay resilience of the default mode.")
  in
  let f socket output_only timeout_s retry_overloaded pipeline =
    let module Client = Layered_serve.Client in
    let retry = { Client.default_retry with retry_overloaded } in
    match Client.connect ~retry socket with
    | Error e ->
        Format.eprintf "layered serve-client: %s@." e;
        1
    | Ok c ->
        let module Protocol = Layered_serve.Protocol in
        let bail msg =
          Format.eprintf "layered serve-client: %s@." msg;
          1
        in
        (* [k] continues on success so raw and decoded printing share the
           response handling in both exchange modes. *)
        let render resp ~k =
          if not output_only then begin
            print_endline resp;
            k ()
          end
          else
            match Protocol.decode_response resp with
            | Ok (Protocol.Resp_ok { output; _ }) ->
                print_string output;
                k ()
            | Ok (Protocol.Resp_error { code; message; _ }) ->
                bail
                  (Printf.sprintf "error response [%s]: %s"
                     (Protocol.error_code_name code) message)
            | Ok (Protocol.Resp_overloaded { reason; _ }) ->
                bail
                  (Printf.sprintf "overloaded (%s)"
                     (match reason with
                     | `Queue -> "queue-depth"
                     | `Memory -> "memory"
                     | `Client -> "per-client"))
            | Error e -> bail ("bad response line: " ^ e)
        in
        let rec loop () =
          match input_line stdin with
          | exception End_of_file -> 0
          | line -> (
              (* resilient exchange: a daemon crash mid-response reconnects
                 and replays this line under what is left of the deadline *)
              match Client.request_raw c line ~timeout_s with
              | Error e -> bail (Client.error_message e)
              | Ok resp -> render resp ~k:loop)
        in
        let pipelined () =
          let rec slurp acc =
            match input_line stdin with
            | exception End_of_file -> List.rev acc
            | line -> slurp (line :: acc)
          in
          let reqs = slurp [] in
          let rec send_all = function
            | [] -> Ok ()
            | line :: rest -> (
                match Client.send c line with
                | Ok () -> send_all rest
                | Error e -> Error e)
          in
          match send_all reqs with
          | Error e -> bail e
          | Ok () -> (
              match Client.read_lines c ~n:(List.length reqs) ~timeout_s with
              | Error e -> bail e
              | Ok resps ->
                  let rec each = function
                    | [] -> 0
                    | resp :: rest -> render resp ~k:(fun () -> each rest)
                  in
                  each resps)
        in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (if pipeline then pipelined else loop)
  in
  Cmd.v (Cmd.info "serve-client" ~doc)
    Term.(
      const f $ socket_arg $ output_only $ timeout $ retry_overloaded $ pipeline)

let () =
  let doc = "layered-analysis reproduction of Moses & Rajsbaum (PODC 1998)" in
  let info = Cmd.info "layered" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            all_cmd;
            verify_cmd;
            layers_cmd;
            chain_cmd;
            graph_cmd;
            classify_cmd;
            oracles_cmd;
            chaos_cmd;
            serve_cmd;
            serve_client_cmd;
          ]))
