open Layered_serve
module Fault = Layered_runtime.Fault

let pass_ = { Oracle.ok = true; detail = "ok" }
let fail detail = { Oracle.ok = false; detail }
let clamp jobs = max 2 jobs
let timeout_s = 10.

(* Fast backoffs for in-process trials: a crash-recovery cycle must not
   dominate a chaos trial's wall clock. *)
let oracle_retry =
  {
    Client.default_retry with
    backoff_initial_s = 0.01;
    backoff_max_s = 0.05;
    max_replays = 8;
  }

let counter = Atomic.make 0

(* Short names: ADDR_UNIX paths are capped near 104 bytes. *)
let fresh_socket_path () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "lsrv-%d-%d.sock" (Unix.getpid ())
       (Atomic.fetch_and_add counter 1))

(* An in-process daemon on its own domain.  [request_timeout_s = 0.]:
   oracle verdicts must not depend on deadline luck.  Shutdown goes over
   the wire in [finally], so the daemon dies even when [f] bails early;
   the client-side read deadline keeps a dead daemon from hanging us. *)
let with_server ?(tweak = Fun.id) ~jobs f =
  let path = fresh_socket_path () in
  let cfg =
    tweak
      {
        (Server.default_config ~socket_path:path) with
        jobs;
        request_timeout_s = 0.;
        install_signals = false;
      }
  in
  let dom = Domain.spawn (fun () -> Server.run cfg) in
  let rec wait n =
    if Sys.file_exists path then true
    else if n = 0 then false
    else begin
      Unix.sleepf 0.05;
      wait (n - 1)
    end
  in
  let ready = wait 100 in
  Fun.protect
    ~finally:(fun () ->
      (match
         Client.connect
           ~retry:{ oracle_retry with connect_deadline_s = 0.5 }
           path
       with
      | Ok c ->
          ignore (Client.request c Protocol.Shutdown ~timeout_s:5.);
          Client.close c
      | Error _ -> ());
      ignore (Domain.join dom : int);
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> if ready then f path else fail "server socket never appeared")

let with_client path f =
  match Client.connect path with
  | Error e -> fail e
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* Four queries, three distinct: q4 repeats q1 so the keyed result
   cache answers it — cache transparency is part of what the oracles
   assert. *)
let q1 = Protocol.Classify_valence { model = "sync"; n = 3; t = 1; depth = 3 }
let q2 = Protocol.Classify_valence { model = "mobile"; n = 3; t = 1; depth = 2 }
let q3 = Protocol.Sweep { model = "iis"; n = 3; t = 1; depth = 2 }
let queries = [ (1, q1); (2, q2); (3, q3); (4, q1) ]

(* One-shot references never touch dispatch or the server: an armed
   serve fault cannot contaminate the expectation being compared to. *)
let reference = function
  | Protocol.Classify_valence { model; n; t; depth } ->
      Dispatch.classify_output ~model ~n ~t ~depth ()
  | Protocol.Sweep { model; n; t; depth } ->
      Dispatch.sweep_output ~model ~n ~t ~depth ()
  | Protocol.Run_experiment { id } -> Dispatch.run_experiment_output ~id ()
  | Protocol.Stats_query | Protocol.Shutdown -> assert false

let expected_line ~id req =
  let exit_code, output = reference req in
  Protocol.encode_response
    (Protocol.Resp_ok { id = Some id; exit_code; output })

(* Sequential request/response over one connection; raw lines out. *)
let roundtrip c qs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (id, req) :: rest -> (
        match Client.request c ~id req ~timeout_s with
        | Ok line -> go (line :: acc) rest
        | Error _ as e -> e)
  in
  go [] qs

let oneshot_eq ~jobs =
  with_server ~jobs:(clamp jobs) (fun path ->
      with_client path (fun c ->
          let rec go = function
            | [] -> pass_
            | (id, req) :: rest ->
                (match Client.request c ~id req ~timeout_s with
                | Error e -> fail e
                | Ok line ->
                    if line = expected_line ~id req then go rest
                    else
                      fail
                        (Printf.sprintf
                           "response %d differs from the one-shot CLI rendering" id))
          in
          go queries))

let interleave_eq ~jobs =
  with_server ~jobs:(clamp jobs) (fun path ->
      with_client path (fun a ->
          with_client path (fun b ->
              (* A: one request line per write, lock-step *)
              match roundtrip a queries with
              | Error e -> fail ("client A: " ^ e)
              | Ok a_lines -> (
                  (* B: the same queries, reversed, in a single write *)
                  let b_queries = List.rev queries in
                  let payload =
                    String.concat "\n"
                      (List.map
                         (fun (id, req) -> Protocol.encode_request ~id req)
                         b_queries)
                  in
                  match Client.send b payload with
                  | Error e -> fail ("client B: " ^ e)
                  | Ok () -> (
                      match
                        Client.read_lines b ~n:(List.length b_queries) ~timeout_s
                      with
                      | Error e -> fail ("client B: " ^ e)
                      | Ok b_lines ->
                          if List.rev b_lines <> a_lines then
                            fail "responses depend on interleaving or grouping"
                          else
                            (* warm (cached) q4 vs cold q1: same bytes *)
                            let out i =
                              match Protocol.decode_response (List.nth a_lines i) with
                              | Ok (Protocol.Resp_ok { output; exit_code; _ }) ->
                                  Some (exit_code, output)
                              | _ -> None
                            in
                            if out 0 <> out 3 || out 0 = None then
                              fail "cached replay differs from the cold answer"
                            else pass_)))))

let jobs_eq ~jobs =
  let run_one ~jobs =
    with_server ~jobs (fun path ->
        with_client path (fun c ->
            match roundtrip c queries with
            | Ok lines -> { Oracle.ok = true; detail = String.concat "\x00" lines }
            | Error e -> fail e))
  in
  let serial = run_one ~jobs:1 in
  if not serial.Oracle.ok then fail ("jobs=1 daemon: " ^ serial.Oracle.detail)
  else
    let parallel = run_one ~jobs:(clamp jobs) in
    if not parallel.Oracle.ok then
      fail (Printf.sprintf "jobs=%d daemon: %s" (clamp jobs) parallel.Oracle.detail)
    else if serial.Oracle.detail <> parallel.Oracle.detail then
      fail "daemon responses differ between jobs=1 and a multi-worker pool"
    else pass_

(* ------------------------------------------------------------------ *)
(* Concurrency oracles: per-request fault domains, single-flight,      *)
(* fair-share shedding                                                 *)

(* "result cache hits     3" out of the stats pretty-printer. *)
let stats_field output name =
  String.split_on_char '\n' output
  |> List.find_map (fun line ->
         let line = String.trim line in
         if String.starts_with ~prefix:name line then
           int_of_string_opt
             (String.trim
                (String.sub line (String.length name)
                   (String.length line - String.length name)))
         else None)

let query_stats c =
  match Client.request c Protocol.Stats_query ~timeout_s with
  | Error e -> Error ("stats: " ^ e)
  | Ok line -> (
      match Protocol.decode_response line with
      | Ok (Protocol.Resp_ok { output; _ }) -> Ok output
      | Ok _ -> Error "stats request answered with a non-ok response"
      | Error e -> Error ("stats response did not decode: " ^ e))

(* Distinct from q1..q3 so intra-oracle cache interactions are exactly
   the ones each oracle scripts. *)
let q_solo = Protocol.Classify_valence { model = "mobile"; n = 3; t = 1; depth = 3 }
let q_flock = Protocol.Classify_valence { model = "sync"; n = 3; t = 1; depth = 2 }

(* Lock-step roundtrip with a byte check per response. *)
let check_queries c qs =
  let rec go = function
    | [] -> pass_
    | (id, req) :: rest -> (
        match Client.request c ~id req ~timeout_s with
        | Error e -> fail e
        | Ok line ->
            if line = expected_line ~id req then go rest
            else
              fail
                (Printf.sprintf
                   "response %d differs from the one-shot CLI rendering" id))
  in
  go qs

(* A disconnect is a private fault: the dying connection's requests are
   cancelled, and nothing a surviving client can observe — response
   bytes or cache accounting — may change.  Y's first three queries are
   also the first three admissions AND the first three executed
   flights, so any armed serve fault lands on a response this oracle
   byte-checks. *)
let cancel_clean ~jobs =
  with_server ~jobs:(clamp jobs) (fun path ->
      with_client path (fun y ->
          let warm = check_queries y [ (1, q1); (2, q2); (3, q3) ] in
          if not warm.Oracle.ok then warm
          else
            (* X: one admitted request, then a hard disconnect — its
               fault domain must cancel without touching anything Y
               sees *)
            match Client.connect path with
            | Error e -> fail ("client X: " ^ e)
            | Ok x -> (
                let sent = Client.send x (Protocol.encode_request ~id:9 q_solo) in
                Client.close x;
                match sent with
                | Error e -> fail ("client X send: " ^ e)
                | Ok () -> (
                    match Client.request y ~id:5 q_solo ~timeout_s with
                    | Error e -> fail ("post-disconnect: " ^ e)
                    | Ok line ->
                        if line <> expected_line ~id:5 q_solo then
                          fail
                            "query after a foreign disconnect differs from \
                             the one-shot rendering"
                        else (
                          match query_stats y with
                          | Error e -> fail e
                          | Ok output -> (
                              (* five compute submissions total; each is
                                 exactly one of hit / miss / join in every
                                 legal interleaving of X's disconnect *)
                              match
                                ( stats_field output "result cache hits",
                                  stats_field output "result cache misses",
                                  stats_field output "single-flight joins" )
                              with
                              | Some h, Some m, Some j ->
                                  if h + m + j = 5 then pass_
                                  else
                                    fail
                                      (Printf.sprintf
                                         "cache accounting off after a \
                                          disconnect: hits+misses+joins = %d, \
                                          expected 5"
                                         (h + m + j))
                              | _ -> fail "stats output lacks cache counters"))))))

(* Four connections fire the same query at once: everyone must get the
   leader's bytes, and the daemon must have computed exactly once
   (one miss; the other three are joins or warm hits, depending on
   arrival timing — never a second miss). *)
let singleflight_eq ~jobs =
  with_server ~jobs:(clamp jobs) (fun path ->
      let conns = List.init 4 (fun _ -> Client.connect path) in
      let cs = List.filter_map Result.to_option conns in
      Fun.protect
        ~finally:(fun () -> List.iter Client.close cs)
        (fun () ->
          match
            List.find_map
              (function Error e -> Some e | Ok _ -> None)
              conns
          with
          | Some e -> fail ("connect: " ^ e)
          | None -> (
              let line = Protocol.encode_request ~id:1 q_flock in
              match
                List.find_map
                  (fun c ->
                    match Client.send c line with
                    | Error e -> Some e
                    | Ok () -> None)
                  cs
              with
              | Some e -> fail ("send: " ^ e)
              | None -> (
                  let expect = expected_line ~id:1 q_flock in
                  let bad =
                    List.find_map
                      (fun c ->
                        match Client.read_lines c ~n:1 ~timeout_s with
                        | Error e -> Some ("read: " ^ e)
                        | Ok [ l ] when l = expect -> None
                        | Ok _ ->
                            Some
                              "a coalesced reply differs from the one-shot \
                               rendering")
                      cs
                  in
                  match bad with
                  | Some d -> fail d
                  | None -> (
                      let c0 = List.hd cs in
                      match query_stats c0 with
                      | Error e -> fail e
                      | Ok output -> (
                          match
                            ( stats_field output "result cache hits",
                              stats_field output "result cache misses",
                              stats_field output "single-flight joins" )
                          with
                          | Some h, Some m, Some j ->
                              if m <> 1 then
                                fail
                                  (Printf.sprintf
                                     "identical concurrent requests computed \
                                      %d times, expected 1"
                                     m)
                              else if h + j <> 3 then
                                fail
                                  (Printf.sprintf
                                     "expected 3 coalesced followers \
                                      (hits+joins), found %d"
                                     (h + j))
                              else
                                (* three more executed flights so the
                                   execution-side fault sites always fire
                                   on a byte-checked response *)
                                check_queries c0
                                  [ (11, q1); (12, q2); (13, q3) ]
                          | _ -> fail "stats output lacks cache counters"))))))

(* One flooding client, one well-behaved one, per-client cap 4.  The
   flood's first four requests coalesce onto one flight and answer ok;
   the rest are shed with the per-client reason, in FIFO order.  The
   well-behaved client's queries all answer with one-shot bytes. *)
let q_fair_b = [ (11, q2); (12, q3); (13, q_solo) ]

let fair_share ~jobs =
  with_server ~jobs:(clamp jobs)
    ~tweak:(fun c -> { c with Server.per_client_cap = 4 })
    (fun path ->
      with_client path (fun a ->
          with_client path (fun b ->
              let ids = List.init 8 (fun i -> i + 1) in
              let payload =
                String.concat "\n"
                  (List.map (fun id -> Protocol.encode_request ~id q1) ids)
              in
              match Client.send a payload with
              | Error e -> fail ("flooding client: " ^ e)
              | Ok () -> (
                  match Client.read_lines a ~n:8 ~timeout_s with
                  | Error e -> fail ("flooding client: " ^ e)
                  | Ok lines -> (
                      let check_reply i line =
                        let id = i + 1 in
                        if i < 4 then
                          if line = expected_line ~id q1 then None
                          else
                            Some
                              (Printf.sprintf
                                 "admitted flood request %d does not carry \
                                  the one-shot bytes"
                                 id)
                        else
                          match Protocol.decode_response line with
                          | Ok
                              (Protocol.Resp_overloaded
                                 { id = Some rid; reason = `Client; _ })
                            when rid = id ->
                              None
                          | _ ->
                              Some
                                (Printf.sprintf
                                   "flood request %d over the per-client cap \
                                    was not shed with reason per-client"
                                   id)
                      in
                      let bad =
                        List.mapi check_reply lines
                        |> List.find_map Fun.id
                      in
                      match bad with
                      | Some d -> fail d
                      | None -> (
                          (* the well-behaved client is untouched by the
                             flood next door *)
                          let v = check_queries b q_fair_b in
                          if not v.Oracle.ok then
                            fail ("well-behaved client: " ^ v.Oracle.detail)
                          else
                            match query_stats b with
                            | Error e -> fail e
                            | Ok output -> (
                                match
                                  stats_field output "single-flight joins"
                                with
                                | Some 3 -> pass_
                                | Some j ->
                                    fail
                                      (Printf.sprintf
                                         "expected the flood's 3 identical \
                                          admitted requests to coalesce, \
                                          found %d joins"
                                         j)
                                | None ->
                                    fail
                                      "stats output lacks a single-flight \
                                       line")))))))

(* ------------------------------------------------------------------ *)
(* Recovery oracles: crash-proof serving                               *)
(*                                                                     *)
(* The contract (after Gafni–Losa's crash/omission equivalence lens):  *)
(* a client must not be able to distinguish, byte for byte, a run      *)
(* against a supervised daemon that crashed and recovered from one     *)
(* that never crashed.  So these oracles do the opposite of ignoring   *)
(* recovery: they run the full supervised stack — spill dir, respawn   *)
(* loop, resilient client — and then treat any recovery event          *)
(* (a restart, a replay, a latency-guard trip) as a DETECTED fault     *)
(* even though the bytes came back right.  Control runs have no        *)
(* recovery events and pass clean.                                     *)

let run_inprocess ~config run =
  Supervisor.supervise config (fun () ->
      match run () with
      | code when code = Server.exit_crashed -> `Crashed (Printf.sprintf "exit %d" code)
      | code -> `Clean code
      | exception e -> `Crashed (Printexc.to_string e))

let sup_config =
  {
    Supervisor.default with
    max_restarts = 8;
    window_s = 60.;
    backoff_initial_s = 0.01;
    backoff_max_s = 0.05;
    verbose = false;
  }

(* One supervised in-process daemon session: spill dir armed, spill on
   every response, no deadlines (verdicts must not depend on timing
   luck).  Returns [f]'s verdict plus the recovery evidence: supervised
   restarts, client replays, and the wall clock of the whole request
   phase (client connect through shutdown response, so an injected read
   stall always lands inside the measured window). *)
let with_supervised_server ~jobs ~dir f =
  let path = fresh_socket_path () in
  let cfg =
    {
      (Server.default_config ~socket_path:path) with
      jobs;
      request_timeout_s = 0.;
      idle_timeout_s = 0.;
      spill_dir = Some dir;
      spill_every = 1;
      install_signals = false;
    }
  in
  let dom =
    Domain.spawn (fun () ->
        run_inprocess ~config:sup_config (fun () -> Server.run cfg))
  in
  let rec wait n =
    if Sys.file_exists path then true
    else if n = 0 then false
    else begin
      Unix.sleepf 0.05;
      wait (n - 1)
    end
  in
  let ready = wait 100 in
  let t0 = Unix.gettimeofday () in
  let finish verdict ~replays =
    let elapsed = Unix.gettimeofday () -. t0 in
    let outcome = Domain.join dom in
    ignore (try Unix.unlink path with Unix.Unix_error _ -> ());
    (verdict, outcome.Supervisor.restarts, replays, elapsed)
  in
  (* last-ditch shutdown so [Domain.join] cannot hang behind a live
     respawned daemon when the main client's shutdown went missing *)
  let ensure_down () =
    match
      Client.connect_err ~retry:{ oracle_retry with connect_deadline_s = 1. } path
    with
    | Ok c ->
        ignore (Client.request c Protocol.Shutdown ~timeout_s:2.);
        Client.close c
    | Error _ -> ()
  in
  if not ready then finish (fail "server socket never appeared") ~replays:0
  else
    match Client.connect_err ~retry:oracle_retry path with
    | Error e ->
        ensure_down ();
        finish (fail ("connect: " ^ Client.error_message e)) ~replays:0
    | Ok c ->
        let verdict = try f c with e -> fail ("raised " ^ Printexc.to_string e) in
        let verdict =
          match Client.request c Protocol.Shutdown ~timeout_s:2. with
          | Ok _ -> verdict
          | Error e ->
              ensure_down ();
              if verdict.Oracle.ok then fail ("shutdown: " ^ e) else verdict
        in
        let replays = Client.replays c in
        Client.close c;
        finish verdict ~replays

(* The read-stall site adds a flat {!Fault.stall_seconds} (0.25 s) to
   some request read; the guard only applies when that site is the one
   armed, so a slow CI box can never flake a control run. *)
let stall_guard_s = 0.2

let stall_armed () =
  match Fault.armed () with
  | Some Fault.Serve_stalled_client -> true
  | _ -> false

(* Byte-correct responses with recovery events are detections, not
   passes (see the header above).  Details carry deterministic counts
   only — the chaos report must stay byte-identical across --jobs. *)
let absorbed ~restarts ~replays ~elapsed verdict =
  if not verdict.Oracle.ok then verdict
  else if restarts > 0 then
    fail
      (Printf.sprintf
         "detected %d supervised restart(s); recovery still reproduced the \
          crash-free bytes"
         restarts)
  else if replays > 0 then
    fail
      (Printf.sprintf
         "detected %d replayed request(s); recovery still reproduced the \
          crash-free bytes"
         replays)
  else if stall_armed () && elapsed > stall_guard_s then
    fail
      "detected an injected read stall (latency guard exceeded); responses \
       were still byte-correct"
  else verdict

let crash_recover_eq ~jobs =
  Oracle.with_tmp_dir (fun dir ->
      let verdict, restarts, replays, elapsed =
        with_supervised_server ~jobs:(clamp jobs) ~dir (fun c ->
            let rec go = function
              | [] -> pass_
              | (id, req) :: rest -> (
                  match Client.request c ~id req ~timeout_s with
                  | Error e -> fail e
                  | Ok line ->
                      if line = expected_line ~id req then go rest
                      else
                        fail
                          (Printf.sprintf
                             "recovered response %d differs from the \
                              crash-free rendering"
                             id))
            in
            go queries)
      in
      absorbed ~restarts ~replays ~elapsed verdict)

let warm_restart ~jobs =
  Oracle.with_tmp_dir (fun dir ->
      let phase f = with_supervised_server ~jobs:(clamp jobs) ~dir f in
      (* Phase 1: compute cold, spill (every response spills, and the
         drain spills again), stop cleanly. *)
      let v1, r1, p1, e1 =
        phase (fun c ->
            match Client.request c ~id:1 q1 ~timeout_s with
            | Error e -> fail e
            | Ok line ->
                if line = expected_line ~id:1 q1 then pass_
                else fail "cold response differs from the one-shot rendering")
      in
      if not v1.Oracle.ok then
        absorbed ~restarts:r1 ~replays:p1 ~elapsed:e1 v1
      else
        (* Phase 2: a fresh daemon on the same spill dir must answer the
           same bytes from the reloaded cache — the hit counter is the
           proof it reloaded rather than recomputed. *)
        let v2, r2, p2, e2 =
          phase (fun c ->
              match Client.request c ~id:1 q1 ~timeout_s with
              | Error e -> fail e
              | Ok line ->
                  if line <> expected_line ~id:1 q1 then
                    fail
                      "restarted daemon's answer differs from the crash-free \
                       bytes"
                  else (
                    match query_stats c with
                    | Error e -> fail e
                    | Ok output -> (
                        match stats_field output "result cache hits" with
                        | Some hits when hits >= 1 -> pass_
                        | Some _ ->
                            fail
                              "restarted daemon answered cold: no result-cache \
                               hit after spill reload"
                        | None -> fail "stats output lacks a result-cache line")))
        in
        absorbed ~restarts:(r1 + r2) ~replays:(p1 + p2) ~elapsed:(e1 +. e2) v2)

let replay_idempotent ~jobs =
  Oracle.with_tmp_dir (fun dir ->
      let verdict, restarts, replays, elapsed =
        with_supervised_server ~jobs:(clamp jobs) ~dir (fun c ->
            match Client.request c ~id:7 q1 ~timeout_s with
            | Error e -> fail e
            | Ok first ->
                if first <> expected_line ~id:7 q1 then
                  fail "first response differs from the one-shot rendering"
                else (
                  (* the same id again, deliberately: an explicit replay *)
                  match Client.request c ~id:7 q1 ~timeout_s with
                  | Error e -> fail ("duplicate send: " ^ e)
                  | Ok second ->
                      if second <> first then
                        fail "a replayed request id produced different bytes"
                      else (
                        match query_stats c with
                        | Error e -> fail e
                        | Ok output -> (
                            match
                              ( stats_field output "result cache hits",
                                stats_field output "result cache misses" )
                            with
                            | Some hits, _ when hits < 1 ->
                                fail
                                  "replayed request id was recomputed (no \
                                   result-cache hit)"
                            | _, Some misses when misses > 1 ->
                                fail
                                  (Printf.sprintf
                                     "replayed request id went cold %d times"
                                     misses)
                            | Some _, Some _ -> pass_
                            | _ -> fail "stats output lacks result-cache lines"))))
      in
      absorbed ~restarts ~replays ~elapsed verdict)

let all =
  [
    {
      Oracle.name = "serve/oneshot-eq";
      what = "daemon responses equal the one-shot CLI rendering, byte for byte";
      check = oneshot_eq;
    };
    {
      Oracle.name = "serve/interleave-eq";
      what =
        "responses are independent of client interleaving/grouping; cached \
         replays equal cold answers";
      check = interleave_eq;
    };
    {
      Oracle.name = "serve/jobs-eq";
      what = "a jobs=1 daemon and a multi-worker daemon answer identically";
      check = jobs_eq;
    };
    {
      Oracle.name = "serve/cancel-clean";
      what =
        "a client disconnect cancels only its own in-flight requests; \
         surviving clients see one-shot bytes and clean cache accounting";
      check = cancel_clean;
    };
    {
      Oracle.name = "serve/singleflight-eq";
      what =
        "identical concurrent requests coalesce onto one computation; every \
         waiter receives the leader's bytes";
      check = singleflight_eq;
    };
    {
      Oracle.name = "serve/fair-share";
      what =
        "a flooding client is shed at its per-client cap (FIFO, reason \
         per-client) while a well-behaved client gets one-shot bytes";
      check = fair_share;
    };
    {
      Oracle.name = "serve/crash-recover-eq";
      what =
        "a supervised daemon that crashes mid-batch still yields the \
         crash-free bytes; restarts and replays count as detections";
      check = crash_recover_eq;
    };
    {
      Oracle.name = "serve/warm-restart";
      what =
        "a restarted daemon answers from the reloaded spill (result-cache \
         hit), byte-identical to the cold run";
      check = warm_restart;
    };
    {
      Oracle.name = "serve/replay-idempotent";
      what =
        "resending a request id returns the first response's bytes from the \
         cache, never a recomputation";
      check = replay_idempotent;
    };
  ]
