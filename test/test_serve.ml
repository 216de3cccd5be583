(* Tests for the serve subsystem: the JSON codec, the wire protocol
   (every variant round-trips; every rejection path answers with the
   right structured error), line framing, the result cache and its
   stats counters, admission control, dispatcher containment, and an
   end-to-end in-process daemon over a real Unix socket. *)

open Layered_serve
module Stats = Layered_runtime.Stats
module Fault = Layered_runtime.Fault
module Valence_query = Layered_analysis.Valence_query

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Jsonx *)

let roundtrip j = Jsonx.of_string (Jsonx.to_string j)

let test_jsonx_roundtrip () =
  let samples =
    [
      Jsonx.Null;
      Jsonx.Bool true;
      Jsonx.Bool false;
      Jsonx.Int 0;
      Jsonx.Int (-42);
      Jsonx.Int max_int;
      Jsonx.String "";
      Jsonx.String "plain";
      Jsonx.String "quotes \" backslash \\ newline \n tab \t ctrl \001";
      Jsonx.List [];
      Jsonx.List [ Jsonx.Int 1; Jsonx.String "two"; Jsonx.Null ];
      Jsonx.Obj [];
      Jsonx.Obj
        [
          ("a", Jsonx.Int 1);
          ("nested", Jsonx.Obj [ ("l", Jsonx.List [ Jsonx.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      match roundtrip j with
      | Ok j' -> check (Jsonx.to_string j ^ " roundtrips") true (j = j')
      | Error e -> Alcotest.fail (Jsonx.to_string j ^ ": " ^ e))
    samples

let test_jsonx_rejects () =
  let bad =
    [
      "";
      "{";
      "}";
      "{\"a\":}";
      "[1,]";
      "nul";
      "\"unterminated";
      "\"bad \\q escape\"";
      "01a";
      "{\"a\":1} trailing";
      "{\"a\" 1}";
      "\"raw \n newline\"";
    ]
  in
  List.iter
    (fun s ->
      match Jsonx.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s))
    bad

(* \u escapes must be exactly four hex digits; int_of_string-style
   OCaml literal syntax (underscores, 0x prefixes) is not JSON *)
let test_jsonx_unicode_escape () =
  (match Jsonx.of_string "\"\\u012f\"" with
  | Ok (Jsonx.String s) -> check_str "U+012F decodes to UTF-8" "\xc4\xaf" s
  | _ -> Alcotest.fail "valid \\u escape rejected");
  (match Jsonx.of_string "\"\\u001F\"" with
  | Ok (Jsonx.String s) -> check_str "upper-case hex accepted" "\x1f" s
  | _ -> Alcotest.fail "upper-case \\u escape rejected");
  List.iter
    (fun s ->
      match Jsonx.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s))
    [ "\"\\u1_2f\""; "\"\\u12g4\""; "\"\\u 123\""; "\"\\u0x12\""; "\"\\u12\"" ]

let test_jsonx_depth_cap () =
  let deep n = String.concat "" (List.init n (fun _ -> "[")) in
  let ok_depth = String.concat "" (List.init 10 (fun _ -> "[")) ^ "1"
                 ^ String.concat "" (List.init 10 (fun _ -> "]")) in
  check "moderate nesting accepted" true (Result.is_ok (Jsonx.of_string ok_depth));
  check "hostile nesting rejected" true
    (Result.is_error (Jsonx.of_string (deep 1000)))

(* ------------------------------------------------------------------ *)
(* Protocol: request round-trips *)

let all_requests =
  [
    Protocol.Classify_valence { model = "sync"; n = 3; t = 1; depth = 3 };
    Protocol.Sweep { model = "iis"; n = 3; t = 1; depth = 2 };
    Protocol.Run_experiment { id = "E1" };
    Protocol.Stats_query;
    Protocol.Shutdown;
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      (* with an id *)
      (match Protocol.decode_request (Protocol.encode_request ~id:7 req) with
      | Ok (Some 7, req') -> check "request roundtrips" true (req = req')
      | Ok _ -> Alcotest.fail "id lost in roundtrip"
      | Error (_, _, m) -> Alcotest.fail m);
      (* and without *)
      match Protocol.decode_request (Protocol.encode_request req) with
      | Ok (None, req') -> check "id-less request roundtrips" true (req = req')
      | Ok _ -> Alcotest.fail "phantom id appeared"
      | Error (_, _, m) -> Alcotest.fail m)
    all_requests

let all_responses =
  [
    Protocol.Resp_ok { id = Some 1; exit_code = 0; output = "line one\nline two\n" };
    Protocol.Resp_ok { id = None; exit_code = 3; output = "" };
    Protocol.Resp_error
      { id = Some 2; code = Protocol.Parse; message = "malformed JSON: oops" };
    Protocol.Resp_error
      { id = None; code = Protocol.Unknown_experiment; message = "no E99" };
    Protocol.Resp_error { id = Some 3; code = Protocol.Internal; message = "boom" };
    Protocol.Resp_overloaded
      { id = Some 4; reason = `Queue; retry_after_s = Some 0.25 };
    Protocol.Resp_overloaded { id = None; reason = `Memory; retry_after_s = None };
  ]

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      let line = Protocol.encode_response resp in
      check "single line" false (String.contains line '\n');
      match Protocol.decode_response line with
      | Ok resp' -> check (line ^ " roundtrips") true (resp = resp')
      | Error e -> Alcotest.fail (line ^ ": " ^ e))
    all_responses

(* Every rejection path answers with the documented error code, and
   carries the request id whenever the line parsed far enough to have
   one. *)
let expect_error ?id code line =
  match Protocol.decode_request line with
  | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" line)
  | Error (got_id, got_code, _) ->
      check_str
        (Printf.sprintf "%S -> %s" line (Protocol.error_code_name code))
        (Protocol.error_code_name code)
        (Protocol.error_code_name got_code);
      check "rejection echoes the id" true (got_id = id)

let test_request_rejections () =
  expect_error Protocol.Parse "not json at all";
  expect_error Protocol.Parse "[1,2,3]";
  expect_error Protocol.Parse "{\"op\":\"stats\"} {\"op\":\"stats\"}";
  expect_error ~id:1 Protocol.Bad_request "{\"id\":1}";
  expect_error ~id:1 Protocol.Bad_request "{\"id\":1,\"op\":\"frobnicate\"}";
  expect_error Protocol.Bad_request "{\"op\":7}";
  expect_error Protocol.Bad_request "{\"id\":\"one\",\"op\":\"stats\"}";
  expect_error ~id:2 Protocol.Bad_request
    "{\"id\":2,\"op\":\"classify-valence\",\"model\":\"sync\",\"n\":3,\"t\":1}";
  expect_error ~id:2 Protocol.Bad_request
    "{\"id\":2,\"op\":\"classify-valence\",\"model\":\"sync\",\"n\":\"three\",\"t\":1,\"depth\":3}";
  expect_error ~id:3 Protocol.Unknown_model
    "{\"id\":3,\"op\":\"sweep\",\"model\":\"quantum\",\"n\":3,\"t\":1,\"depth\":2}";
  expect_error ~id:4 Protocol.Unknown_experiment
    "{\"id\":4,\"op\":\"run-experiment\",\"experiment\":\"E99\"}";
  (* the CLI's lower bounds *)
  expect_error ~id:5 Protocol.Out_of_range
    "{\"id\":5,\"op\":\"sweep\",\"model\":\"sync\",\"n\":0,\"t\":1,\"depth\":2}";
  expect_error ~id:5 Protocol.Out_of_range
    "{\"id\":5,\"op\":\"classify-valence\",\"model\":\"sync\",\"n\":1,\"t\":1,\"depth\":2}";
  expect_error ~id:5 Protocol.Out_of_range
    "{\"id\":5,\"op\":\"sweep\",\"model\":\"sync\",\"n\":3,\"t\":-1,\"depth\":2}";
  expect_error ~id:5 Protocol.Out_of_range
    "{\"id\":5,\"op\":\"sweep\",\"model\":\"sync\",\"n\":3,\"t\":1,\"depth\":-1}";
  (* the serve-side upper caps *)
  expect_error ~id:6 Protocol.Out_of_range
    (Printf.sprintf
       "{\"id\":6,\"op\":\"classify-valence\",\"model\":\"sync\",\"n\":%d,\"t\":1,\"depth\":2}"
       (Protocol.max_n + 1));
  expect_error ~id:6 Protocol.Out_of_range
    (Printf.sprintf
       "{\"id\":6,\"op\":\"classify-valence\",\"model\":\"sync\",\"n\":3,\"t\":%d,\"depth\":2}"
       (Protocol.max_t + 1));
  expect_error ~id:6 Protocol.Out_of_range
    (Printf.sprintf
       "{\"id\":6,\"op\":\"classify-valence\",\"model\":\"sync\",\"n\":3,\"t\":1,\"depth\":%d}"
       (Protocol.max_depth + 1))

(* Experiment lookup is case-insensitive in the registry; the decoded
   request carries the canonical id. *)
let test_request_canonical_experiment () =
  match Protocol.decode_request "{\"op\":\"run-experiment\",\"experiment\":\"e1\"}" with
  | Ok (None, Protocol.Run_experiment { id }) -> check_str "canonical id" "E1" id
  | _ -> Alcotest.fail "lower-case experiment id rejected"

let test_cache_key () =
  check "stats never cached" true (Protocol.cache_key Protocol.Stats_query = None);
  check "shutdown never cached" true (Protocol.cache_key Protocol.Shutdown = None);
  let k1 =
    Protocol.cache_key
      (Protocol.Classify_valence { model = "sync"; n = 3; t = 1; depth = 3 })
  in
  let k2 =
    Protocol.cache_key
      (Protocol.Classify_valence { model = "sync"; n = 3; t = 1; depth = 4 })
  in
  check "compute requests are keyed" true (k1 <> None);
  check "distinct params, distinct keys" true (k1 <> k2)

(* ------------------------------------------------------------------ *)
(* Session framing *)

let test_framing_partial_lines () =
  let s = Session.create () in
  let lines, ov = Session.feed s "{\"op\":\"st" in
  check "no line yet" true (lines = [] && not ov);
  let lines, ov = Session.feed s "ats\"}\n{\"op\":" in
  check "first line complete" true (lines = [ "{\"op\":\"stats\"}" ] && not ov);
  let lines, ov = Session.feed s "\"shutdown\"}\n" in
  check "second line complete" true (lines = [ "{\"op\":\"shutdown\"}" ] && not ov)

let test_framing_multi_per_read () =
  let s = Session.create () in
  let lines, ov = Session.feed s "one\ntwo\r\nthree\nfour" in
  check "three lines, CR stripped" true
    (lines = [ "one"; "two"; "three" ] && not ov);
  check_int "residue buffered" 4 (Session.pending_bytes s);
  let lines, ov = Session.feed s "\n" in
  check "residue completes" true (lines = [ "four" ] && not ov)

let test_framing_oversized () =
  let s = Session.create () in
  let big = String.make (Protocol.max_line_bytes + 1) 'x' in
  let lines, ov = Session.feed s ("ok\n" ^ big ^ "\n") in
  check "lines before the overflow still delivered" true (lines = [ "ok" ]);
  check "overflow flagged" true ov;
  let lines, ov = Session.feed s "more\n" in
  check "overflowed session yields nothing" true (lines = [] && ov);
  (* an unterminated over-long residue also overflows *)
  let s2 = Session.create () in
  let _, ov = Session.feed s2 big in
  check "unterminated oversized residue overflows" true ov

(* the client half frames responses with a larger cap: a response line
   longer than the request limit must come through intact *)
let test_framing_custom_cap () =
  let s = Session.create ~max_line_bytes:max_int () in
  let big = String.make (Protocol.max_line_bytes * 2) 'y' in
  let lines, ov = Session.feed s (big ^ "\n") in
  check "big response line delivered" true (lines = [ big ] && not ov)

(* ------------------------------------------------------------------ *)
(* Result cache + stats counters *)

let test_cache_counters () =
  Stats.reset ();
  let c = Cache.create ~max_entries:4 () in
  check "miss on empty" true (Cache.find c "k" = None);
  Cache.add c "k" { Cache.exit_code = 0; output = "payload" };
  (match Cache.find c "k" with
  | Some { Cache.exit_code = 0; output = "payload" } -> ()
  | _ -> Alcotest.fail "hit did not replay the exact entry");
  let s = Stats.snapshot () in
  check_int "one hit counted" 1 s.Stats.result_cache_hits;
  check_int "one miss counted" 1 s.Stats.result_cache_misses;
  (* reset-on-full keeps the table bounded *)
  List.iter
    (fun i ->
      Cache.add c (string_of_int i) { Cache.exit_code = 0; output = "" })
    [ 1; 2; 3; 4; 5 ];
  check "bounded" true (Cache.entries c <= 4)

let test_stats_pp_mentions_result_cache () =
  Stats.reset ();
  Stats.record_result_cache ~hit:true;
  Stats.record_result_cache ~hit:false;
  let rendered = Format.asprintf "%a" Stats.pp (Stats.snapshot ()) in
  check "pp prints result cache lines" true
    (let has needle =
       let nl = String.length needle and l = String.length rendered in
       let rec go i = i + nl <= l && (String.sub rendered i nl = needle || go (i + 1)) in
       go 0
     in
     has "result cache hits" && has "result cache misses")

(* ------------------------------------------------------------------ *)
(* Admission *)

let test_admission () =
  let cfg =
    {
      Admission.queue_cap = 2;
      max_heap_mb = 1_000_000;
      request_timeout_s = 5.;
      per_client_cap = 4;
    }
  in
  (match Admission.decide cfg ~pending:0 ~client_pending:0 with
  | Admission.Admit _ -> ()
  | Admission.Shed _ -> Alcotest.fail "idle daemon shed a request");
  (match Admission.decide cfg ~pending:3 ~client_pending:0 with
  | Admission.Shed { reason = `Queue; retry_after_s } ->
      check "queue shed carries a positive retry hint" true (retry_after_s > 0.)
  | _ -> Alcotest.fail "queue depth over cap not shed");
  match
    Admission.decide
      { cfg with Admission.max_heap_mb = 0 (* watermark below any live heap *) }
      ~pending:0 ~client_pending:0
  with
  | Admission.Shed { reason = `Memory; retry_after_s } ->
      check "memory shed carries a positive retry hint" true (retry_after_s > 0.)
  | _ -> Alcotest.fail "heap over watermark not shed"

let test_admission_per_client_cap () =
  let cfg =
    {
      Admission.queue_cap = 64;
      max_heap_mb = 1_000_000;
      request_timeout_s = 0.;
      per_client_cap = 2;
    }
  in
  (match Admission.decide cfg ~pending:0 ~client_pending:1 with
  | Admission.Admit _ -> ()
  | Admission.Shed _ -> Alcotest.fail "client under its cap shed");
  (match Admission.decide cfg ~pending:0 ~client_pending:2 with
  | Admission.Shed { reason = `Client; retry_after_s } ->
      check "per-client shed carries a positive retry hint" true
        (retry_after_s > 0.)
  | _ -> Alcotest.fail "client at its cap not shed");
  (* the per-client gate is checked before the global queue gate *)
  (match Admission.decide cfg ~pending:1_000 ~client_pending:2 with
  | Admission.Shed { reason = `Client; _ } -> ()
  | _ -> Alcotest.fail "per-client shed not checked before queue shed");
  (* 0 disables the cap *)
  match
    Admission.decide
      { cfg with Admission.per_client_cap = 0 }
      ~pending:0 ~client_pending:10_000
  with
  | Admission.Admit _ -> ()
  | Admission.Shed _ -> Alcotest.fail "disabled per-client cap still shed"

(* The backlog's determinism obligations: earliest deadline first,
   strict arrival order among equal deadlines — so which request runs
   next, and which is shed first, is a pure function of the admission
   sequence. *)
let test_backlog_order () =
  let b = Admission.Backlog.create () in
  Admission.Backlog.push b ~client:1 ~deadline:infinity "a";
  Admission.Backlog.push b ~client:2 ~deadline:infinity "b";
  Admission.Backlog.push b ~client:1 ~deadline:1. "c";
  Admission.Backlog.push b ~client:3 ~deadline:infinity "d";
  Admission.Backlog.push b ~client:2 ~deadline:1. "e";
  check_int "five queued" 5 (Admission.Backlog.length b);
  let drained = List.init 5 (fun _ -> Admission.Backlog.pop b) in
  check "deadlines first, FIFO among equals" true
    ([ Some "c"; Some "e"; Some "a"; Some "b"; Some "d" ] = drained);
  check "drained empty" true (Admission.Backlog.pop b = None)

let test_backlog_fair_share () =
  let b = Admission.Backlog.create () in
  List.iter
    (fun (client, x) -> Admission.Backlog.push b ~client ~deadline:infinity x)
    [
      (1, "a1"); (1, "a2"); (1, "a3");
      (2, "b1"); (2, "b2"); (2, "b3");
      (3, "c1");
    ];
  check_int "depth of client 1" 3 (Admission.Backlog.depth_of b ~client:1);
  (* depth tie (3 vs 3) breaks toward the smaller client id; the victim
     loses its NEWEST entry *)
  (match Admission.Backlog.evict_newest_of_deepest b ~spare:9 ~deeper_than:0 with
  | Some (1, "a3") -> ()
  | _ -> Alcotest.fail "tie not broken toward the smaller client id");
  (* client 2 (3 entries) is now strictly deepest *)
  (match Admission.Backlog.evict_newest_of_deepest b ~spare:9 ~deeper_than:0 with
  | Some (2, "b3") -> ()
  | _ -> Alcotest.fail "deepest client not chosen after the first eviction");
  (* the spare client is never the victim, even when deepest-tied *)
  (match Admission.Backlog.evict_newest_of_deepest b ~spare:1 ~deeper_than:0 with
  | Some (2, "b2") -> ()
  | _ -> Alcotest.fail "spare client was not spared");
  (* deeper_than: no client deeper than 2 remains *)
  (match Admission.Backlog.evict_newest_of_deepest b ~spare:9 ~deeper_than:2 with
  | None -> ()
  | Some _ -> Alcotest.fail "evicted a client no deeper than the threshold");
  (* a dead client's entries leave in (deadline, seq) order *)
  check "remove_client returns in order" true
    ([ "a1"; "a2" ] = Admission.Backlog.remove_client b ~client:1);
  check_int "removed client has no depth" 0
    (Admission.Backlog.depth_of b ~client:1);
  check "remaining pop order" true
    ([ Some "b1"; Some "c1"; None ]
    = List.init 3 (fun _ -> Admission.Backlog.pop b))

(* ------------------------------------------------------------------ *)
(* Dispatcher: byte-identity with the renderers, containment, caching *)

(* One connection on a dispatcher over a pool with one worker, so
   flights run one at a time: [send] submits a line, drains, and returns
   its response. *)
let with_dispatcher ?(queue_cap = 64) f =
  Layered_runtime.Pool.with_pool ~jobs:2 (fun pool ->
      let ctx =
        Dispatch.create_ctx ~pool
          ~admission:
            {
              Admission.queue_cap;
              max_heap_mb = 1_000_000;
              request_timeout_s = 0.;
              per_client_cap = 0;
            }
          ()
      in
      let d = Dispatcher.create ~ctx ~on_commit:ignore () in
      let replies = Queue.create () in
      let conn =
        Dispatcher.add_conn d
          ~write:(fun r ->
            Queue.push r replies;
            true)
          ~on_dead:ignore
      in
      let send line =
        Dispatcher.submit d conn line;
        Dispatcher.drain d;
        Queue.pop replies
      in
      (* pool first, pipe second, as in [Server.run]: a worker
         finishing late must find the wakeup pipe still open *)
      Fun.protect
        ~finally:(fun () ->
          Layered_runtime.Pool.shutdown pool;
          Dispatcher.close d)
        (fun () -> f send))

let classify_line ~id = Protocol.encode_request ~id
    (Protocol.Classify_valence { model = "sync"; n = 3; t = 1; depth = 3 })

let test_dispatch_matches_renderer () =
  with_dispatcher (fun send ->
      match send (classify_line ~id:1) with
      | Protocol.Resp_ok { id = Some 1; exit_code; output } ->
          let ref_code, ref_out =
            Dispatch.classify_output ~model:"sync" ~n:3 ~t:1 ~depth:3 ()
          in
          check_int "exit code" ref_code exit_code;
          check_str "output bytes" ref_out output
      | _ -> Alcotest.fail "classify did not answer ok")

let test_dispatch_cache_replay () =
  with_dispatcher (fun send ->
      Stats.reset ();
      let first = send (classify_line ~id:1) in
      let second = send (classify_line ~id:1) in
      check "replay is byte-identical" true (first = second);
      let s = Stats.snapshot () in
      check_int "second answer came from the cache" 1 s.Stats.result_cache_hits)

let test_dispatch_containment () =
  with_dispatcher (fun send ->
      (* the armed handler fault fires within the first three computes;
         the dispatcher must answer an internal error, then keep serving *)
      Fault.arm ~seed:7 Fault.Serve_handler_raise;
      let responses =
        Fun.protect ~finally:Fault.disarm (fun () ->
            List.map
              (fun depth ->
                send
                  (Protocol.encode_request ~id:depth
                     (Protocol.Classify_valence
                        { model = "sync"; n = 3; t = 1; depth })))
              [ 1; 2; 3 ])
      in
      check_int "the fault fired" 1 (Fault.fired ());
      let internals =
        List.length
          (List.filter
             (function
               | Protocol.Resp_error { code = Protocol.Internal; _ } -> true
               | _ -> false)
             responses)
      in
      check_int "exactly one request poisoned" 1 internals;
      match send (classify_line ~id:9) with
      | Protocol.Resp_ok _ -> ()
      | _ -> Alcotest.fail "dispatcher dead after a contained raise")

let test_dispatch_shed () =
  (* a negative queue cap sheds every compute request *)
  with_dispatcher ~queue_cap:(-1) (fun send ->
      (match send (classify_line ~id:1) with
      | Protocol.Resp_overloaded
          { id = Some 1; reason = `Queue; retry_after_s = Some s } ->
          check "shed response carries the retry hint" true (s > 0.)
      | _ -> Alcotest.fail "queue overload not shed");
      match send (Protocol.encode_request Protocol.Stats_query) with
      | Protocol.Resp_ok _ -> ()
      | _ -> Alcotest.fail "stats must bypass admission")

(* ------------------------------------------------------------------ *)
(* End to end: a real daemon on a real socket *)

let with_daemon ?(tweak = Fun.id) tag f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lsrv-%s-%d.sock" tag (Unix.getpid ()))
  in
  let cfg =
    tweak
      {
        (Server.default_config ~socket_path:path) with
        request_timeout_s = 0.;
        install_signals = false;
      }
  in
  let dom = Domain.spawn (fun () -> Server.run cfg) in
  let rec wait n =
    if Sys.file_exists path then ()
    else if n = 0 then Alcotest.fail "server socket never appeared"
    else (Unix.sleepf 0.05; wait (n - 1))
  in
  wait 100;
  f path;
  check_int "clean exit code" 0 (Domain.join dom);
  check "socket unlinked" false (Sys.file_exists path)

let test_end_to_end () =
  with_daemon "e2e" (fun path ->
  (match Client.connect path with
  | Error e -> Alcotest.fail e
  | Ok c ->
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          (* an ok answer matching the pure renderer *)
          (match Client.request c ~id:1
                   (Protocol.Classify_valence { model = "sync"; n = 3; t = 1; depth = 3 })
                   ~timeout_s:30.
           with
          | Error e -> Alcotest.fail e
          | Ok line ->
              let code, output =
                Dispatch.classify_output ~model:"sync" ~n:3 ~t:1 ~depth:3 ()
              in
              check_str "wire answer equals renderer"
                (Protocol.encode_response
                   (Protocol.Resp_ok { id = Some 1; exit_code = code; output }))
                line);
          (* a malformed line answers an error and the daemon survives *)
          (match Client.send c "not json" with
          | Error e -> Alcotest.fail e
          | Ok () -> ());
          (match Client.read_lines c ~n:1 ~timeout_s:10. with
          | Ok [ line ] -> (
              match Protocol.decode_response line with
              | Ok (Protocol.Resp_error { code = Protocol.Parse; _ }) -> ()
              | _ -> Alcotest.fail "malformed line not answered with parse error")
          | Ok _ | Error _ -> Alcotest.fail "no answer to malformed line");
          (* still serving; then shut down over the wire *)
          (match Client.request c Protocol.Stats_query ~timeout_s:10. with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("stats after error: " ^ e));
          match Client.request c Protocol.Shutdown ~timeout_s:10. with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("shutdown: " ^ e))))

(* A client that pipelines several requests and hangs up mid-batch must
   only lose its own responses: the first failed write drops the
   client, the rest of its batch is abandoned (never written to the
   closed fd), and the daemon keeps serving everyone else. *)
let test_pipelined_disconnect () =
  with_daemon "drop" (fun path ->
      (match Client.connect path with
      | Error e -> Alcotest.fail e
      | Ok rude ->
          List.iter
            (fun id ->
              match
                Client.send rude
                  (Protocol.encode_request ~id
                     (Protocol.Classify_valence
                        { model = "sync"; n = 3; t = 1; depth = id }))
              with
              | Ok () -> ()
              | Error e -> Alcotest.fail ("pipeline write: " ^ e))
            [ 1; 2; 3; 4 ];
          (* hang up without reading a single response *)
          Client.close rude);
      match Client.connect path with
      | Error e -> Alcotest.fail e
      | Ok c ->
          Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
              (match Client.request c ~id:9
                       (Protocol.Classify_valence
                          { model = "sync"; n = 3; t = 1; depth = 3 })
                       ~timeout_s:30.
               with
              | Ok _ -> ()
              | Error e ->
                  Alcotest.fail ("daemon dead after rude disconnect: " ^ e));
              match Client.request c Protocol.Shutdown ~timeout_s:10. with
              | Ok _ -> ()
              | Error e -> Alcotest.fail ("shutdown: " ^ e)))

(* A signal storm around the accept/select loop must not kill the
   daemon: the loop's EINTR discipline treats an interrupted select as
   an empty readiness set and retries an interrupted accept, so a
   request issued mid-storm still gets correct bytes and the daemon
   still exits cleanly. *)
let test_signal_during_accept () =
  let old = Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ())) in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigusr1 old)
    (fun () ->
      with_daemon "sigstorm" (fun path ->
          let storm n =
            for _ = 1 to n do
              Unix.kill (Unix.getpid ()) Sys.sigusr1
            done
          in
          for round = 1 to 5 do
            storm 20;
            match Client.connect path with
            | Error e -> Alcotest.fail ("connect mid-storm: " ^ e)
            | Ok c ->
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    storm 20;
                    match
                      Client.request c ~id:round
                        (Protocol.Classify_valence
                           { model = "sync"; n = 3; t = 1; depth = 3 })
                        ~timeout_s:30.
                    with
                    | Error e -> Alcotest.fail ("request mid-storm: " ^ e)
                    | Ok line ->
                        let code, output =
                          Dispatch.classify_output ~model:"sync" ~n:3 ~t:1
                            ~depth:3 ()
                        in
                        check_str "answer mid-storm equals renderer"
                          (Protocol.encode_response
                             (Protocol.Resp_ok
                                { id = Some round; exit_code = code; output }))
                          line)
          done;
          storm 20;
          match Client.connect path with
          | Error e -> Alcotest.fail e
          | Ok c ->
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  match Client.request c Protocol.Shutdown ~timeout_s:10. with
                  | Ok _ -> ()
                  | Error e -> Alcotest.fail ("shutdown mid-storm: " ^ e))))

(* Three connections racing the identical cold query against a
   multi-worker daemon must all get the renderer's bytes: the
   dispatcher coalesces them into one flight (or answers the laggards
   warm), and either path is byte-identical. *)
let test_concurrent_singleflight () =
  with_daemon
    ~tweak:(fun c -> { c with Server.jobs = 3 })
    "sflight"
    (fun path ->
      let req =
        Protocol.encode_request ~id:1
          (Protocol.Classify_valence { model = "sync"; n = 4; t = 1; depth = 3 })
      in
      let code, output =
        Dispatch.classify_output ~model:"sync" ~n:4 ~t:1 ~depth:3 ()
      in
      let expected =
        Protocol.encode_response
          (Protocol.Resp_ok { id = Some 1; exit_code = code; output })
      in
      let conns =
        List.map
          (fun _ ->
            match Client.connect path with
            | Ok c -> c
            | Error e -> Alcotest.fail e)
          [ 1; 2; 3 ]
      in
      Fun.protect
        ~finally:(fun () -> List.iter Client.close conns)
        (fun () ->
          List.iter
            (fun c ->
              match Client.send c req with
              | Ok () -> ()
              | Error e -> Alcotest.fail ("racing send: " ^ e))
            conns;
          List.iter
            (fun c ->
              match Client.read_lines c ~n:1 ~timeout_s:30. with
              | Ok [ line ] -> check_str "coalesced answer" expected line
              | Ok _ | Error _ -> Alcotest.fail "no answer to the raced query")
            conns);
      match Client.connect path with
      | Error e -> Alcotest.fail e
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              match Client.request c Protocol.Shutdown ~timeout_s:10. with
              | Ok _ -> ()
              | Error e -> Alcotest.fail ("shutdown: " ^ e)))

(* At --jobs 2 the daemon computes two requests at once: a light query
   sent on a second connection while a heavy cold one holds a worker is
   answered first.  One flight at a time would answer the heavy query
   first.  The light query goes out only after a stats round trip on
   its connection, by which time the daemon has read the heavy one and
   started it. *)
let test_two_flights () =
  with_daemon
    ~tweak:(fun c -> { c with Server.jobs = 2 })
    "flights"
    (fun path ->
      let connect () =
        match Client.connect path with Ok c -> c | Error e -> Alcotest.fail e
      in
      let heavy = ("smp", 4, 4) and light = ("iis", 3, 3) in
      let query (model, n, depth) =
        Protocol.Classify_valence { model; n; t = 1; depth }
      in
      let expected id (model, n, depth) =
        let code, output = Dispatch.classify_output ~model ~n ~t:1 ~depth () in
        Protocol.encode_response
          (Protocol.Resp_ok { id = Some id; exit_code = code; output })
      in
      let c1 = connect () and c2 = connect () in
      Fun.protect
        ~finally:(fun () -> List.iter Client.close [ c1; c2 ])
        (fun () ->
          (match Client.send c1 (Protocol.encode_request ~id:1 (query heavy)) with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("heavy send: " ^ e));
          (match Client.request c2 Protocol.Stats_query ~timeout_s:30. with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("stats: " ^ e));
          (match Client.send c2 (Protocol.encode_request ~id:2 (query light)) with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("light send: " ^ e));
          (* each reply takes the next ticket as it arrives *)
          let ticket = Atomic.make 0 in
          let reply c =
            match Client.read_lines c ~n:1 ~timeout_s:120. with
            | Ok [ line ] -> (Atomic.fetch_and_add ticket 1, line)
            | Ok _ | Error _ -> Alcotest.fail "no reply"
          in
          let heavy_reader = Domain.spawn (fun () -> reply c1) in
          let light_turn, light_line = reply c2 in
          let heavy_turn, heavy_line = Domain.join heavy_reader in
          check_int "the light query is answered first" 0 light_turn;
          check_int "the heavy query second" 1 heavy_turn;
          check_str "light bytes" (expected 2 light) light_line;
          check_str "heavy bytes" (expected 1 heavy) heavy_line);
      match Client.connect path with
      | Error e -> Alcotest.fail e
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              match Client.request c Protocol.Shutdown ~timeout_s:10. with
              | Ok _ -> ()
              | Error e -> Alcotest.fail ("shutdown: " ^ e)))

(* A client that hangs up with a request in flight cancels only its own
   fault domain: a later client asking the same question gets the full,
   correct bytes — never a leaked cancellation. *)
let test_disconnect_cancels () =
  with_daemon
    ~tweak:(fun c -> { c with Server.jobs = 3 })
    "cancel"
    (fun path ->
      let q =
        Protocol.Classify_valence { model = "sync"; n = 4; t = 1; depth = 4 }
      in
      (match Client.connect path with
      | Error e -> Alcotest.fail e
      | Ok rude -> (
          match Client.send rude (Protocol.encode_request ~id:1 q) with
          | Ok () -> Client.close rude
          | Error e -> Alcotest.fail ("rude send: " ^ e)));
      match Client.connect path with
      | Error e -> Alcotest.fail e
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              (match Client.request c ~id:2 q ~timeout_s:30. with
              | Error e -> Alcotest.fail ("survivor starved: " ^ e)
              | Ok line ->
                  let code, output =
                    Dispatch.classify_output ~model:"sync" ~n:4 ~t:1 ~depth:4 ()
                  in
                  check_str "survivor gets full bytes"
                    (Protocol.encode_response
                       (Protocol.Resp_ok
                          { id = Some 2; exit_code = code; output }))
                    line);
              match Client.request c Protocol.Shutdown ~timeout_s:10. with
              | Ok _ -> ()
              | Error e -> Alcotest.fail ("shutdown: " ^ e)))

(* ------------------------------------------------------------------ *)
(* Client resilience: typed connect timeout, deterministic backoff *)

let fast_retry =
  {
    Client.default_retry with
    connect_deadline_s = 0.2;
    backoff_initial_s = 0.01;
    backoff_max_s = 0.03;
  }

let test_connect_timeout () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "lsrv-no-such.sock" in
  let t0 = Unix.gettimeofday () in
  match Client.connect_err ~retry:fast_retry path with
  | Ok _ -> Alcotest.fail "connected to a socket that does not exist"
  | Error (Client.Io m) -> Alcotest.fail ("expected Connect_timeout, got Io: " ^ m)
  | Error (Client.Connect_timeout { path = p; attempts; elapsed_s; last }) ->
      check_str "error names the socket" path p;
      check "several backoff attempts were made" true (attempts >= 2);
      check "elapsed covers the deadline" true (elapsed_s >= 0.2);
      check "total time bounded by deadline + one backoff" true
        (Unix.gettimeofday () -. t0 < 1.);
      check "last errno recorded" true (String.length last > 0)

let test_backoff_deterministic () =
  (* same policy, same schedule — and every delay lands in
     [50%, 100%] of the capped nominal *)
  List.iter
    (fun attempt ->
      let a = Client.backoff_s fast_retry ~attempt in
      let b = Client.backoff_s fast_retry ~attempt in
      check ("client attempt " ^ string_of_int attempt ^ " deterministic") true
        (a = b);
      let nominal =
        Float.min fast_retry.Client.backoff_max_s
          (fast_retry.Client.backoff_initial_s *. (2. ** float_of_int attempt))
      in
      check "within the jitter band" true
        (a >= (0.5 *. nominal) -. 1e-9 && a <= nominal +. 1e-9))
    [ 0; 1; 2; 5; 10 ];
  let sup = { Supervisor.default with backoff_initial_s = 0.1; backoff_max_s = 0.4 } in
  List.iter
    (fun attempt ->
      let a = Supervisor.backoff_s sup ~attempt in
      check ("supervisor attempt " ^ string_of_int attempt ^ " deterministic")
        true
        (a = Supervisor.backoff_s sup ~attempt);
      check "supervisor delay capped" true (a <= sup.Supervisor.backoff_max_s))
    [ 0; 1; 2; 5; 10 ];
  (* distinct seeds, distinct schedules (the herd desynchronises) *)
  check "seed moves the schedule" true
    (Client.backoff_s fast_retry ~attempt:3
    <> Client.backoff_s { fast_retry with Client.jitter_seed = 1 } ~attempt:3)

(* ------------------------------------------------------------------ *)
(* Supervisor: restart counting, exception crashes, circuit breaker *)

let quiet_sup =
  {
    Supervisor.default with
    backoff_initial_s = 0.001;
    backoff_max_s = 0.002;
    verbose = false;
  }

let test_supervisor_restarts () =
  let calls = ref 0 in
  let outcome =
    Layered_check.Serve_oracles.run_inprocess ~config:quiet_sup (fun () ->
        incr calls;
        if !calls <= 2 then Server.exit_crashed else 0)
  in
  check_int "two crashes absorbed" 2 outcome.Supervisor.restarts;
  check_int "final incarnation's code" 0 outcome.Supervisor.exit_code;
  check "breaker untouched" false outcome.Supervisor.gave_up;
  (* a raised exception is a crash like any abnormal exit *)
  let calls = ref 0 in
  let outcome =
    Layered_check.Serve_oracles.run_inprocess ~config:quiet_sup (fun () ->
        incr calls;
        if !calls = 1 then failwith "boom" else 0)
  in
  check_int "exception absorbed" 1 outcome.Supervisor.restarts;
  (* exit 2 (bind failure) must NOT be respawned *)
  let calls = ref 0 in
  let outcome =
    Layered_check.Serve_oracles.run_inprocess ~config:quiet_sup (fun () ->
        incr calls;
        2)
  in
  check_int "bind failure not respawned" 1 !calls;
  check_int "bind failure code passed through" 2 outcome.Supervisor.exit_code

let test_supervisor_breaker () =
  let calls = ref 0 in
  let outcome =
    Layered_check.Serve_oracles.run_inprocess
      ~config:{ quiet_sup with Supervisor.max_restarts = 2 }
      (fun () ->
        incr calls;
        Server.exit_crashed)
  in
  check "breaker tripped" true outcome.Supervisor.gave_up;
  check_int "gave up with exit 1" 1 outcome.Supervisor.exit_code;
  check_int "max_restarts crashes absorbed before the trip" 2
    outcome.Supervisor.restarts;
  check_int "spawned max_restarts + 1 times" 3 !calls

(* ------------------------------------------------------------------ *)
(* Warm-cache spill: save + load roundtrip through the checkpoint *)

let with_tmp_dir = Layered_check.Oracle.with_tmp_dir

(* The valence memo survives a restart: after [Spill.load] into fresh
   caches, the same queries give the cold verdicts without a single
   valence miss, and the reloaded memo exports the very bytes that were
   spilled. *)
let spill_queries = [ ("sync", 3, 1, 3); ("mp", 3, 1, 3); ("iis", 3, 1, 2) ]

let run_queries vcache =
  List.map
    (fun (model, n, t, depth) ->
      (Valence_query.run ~cache:vcache ~model ~n ~t ~depth ()).Valence_query.verdicts)
    spill_queries

let test_spill_roundtrip () =
  with_tmp_dir (fun dir ->
      let rcache = Cache.create () in
      Cache.add rcache "k1" { Cache.exit_code = 0; output = "first\n" };
      Cache.add rcache "k2" { Cache.exit_code = 3; output = "" };
      let vcache = Valence_query.create_cache () in
      (* populate the classifier memos through real queries *)
      let cold = run_queries vcache in
      let saved = Marshal.to_string (Valence_query.export_spill vcache) [] in
      (match Spill.save ~dir ~rcache ~vcache () with
      | Ok n -> check "spill saved some entries" true (n > 0)
      | Error e -> Alcotest.fail ("spill save: " ^ e));
      (* a fresh process's caches: reload and compare *)
      let rcache' = Cache.create () in
      let vcache' = Valence_query.create_cache () in
      let restored = Spill.load ~dir ~rcache:rcache' ~vcache:vcache' in
      check "entries restored" true (restored > 0);
      (match Cache.find rcache' "k1" with
      | Some { Cache.exit_code = 0; output = "first\n" } -> ()
      | _ -> Alcotest.fail "result-cache entry lost in the spill roundtrip");
      Stats.reset ();
      let warm = run_queries vcache' in
      check "reloaded verdicts equal the cold ones" true (warm = cold);
      check_int "reloaded memo answers without a miss" 0
        (Stats.snapshot ()).Stats.valence_cache_misses;
      check_str "reloaded memo exports the spilled bytes" saved
        (Marshal.to_string (Valence_query.export_spill vcache') []);
      (* generations are pruned: repeated spills do not accumulate *)
      List.iter
        (fun _ -> ignore (Spill.save ~dir ~rcache ~vcache ()))
        [ 1; 2; 3; 4; 5 ];
      check "old spill generations pruned" true
        (Array.length (Sys.readdir dir) <= Spill.keep_generations);
      (* an unreadable spill is a cold start, not a crash *)
      check_int "missing dir loads cold" 0
        (Spill.load ~dir:"/nonexistent/lsrv" ~rcache:(Cache.create ())
           ~vcache:(Valence_query.create_cache ())))

(* A spill in the version-1 payload shape, which keyed valence entries
   by key string.  [Marshal] cannot tell it from version 2's part-string
   vectors, so only the version guard keeps it from being misread. *)
type v1_payload = {
  v1_version : int;
  v1_rcache : (string * Cache.entry) list;
  v1_vcache :
    ((string * int * int) * (string * (int * Layered_core.Valence.outcome)) list) list;
}

let test_spill_version_guard () =
  with_tmp_dir (fun dir ->
      let outcome =
        { Layered_core.Valence.vals = Layered_core.Vset.empty; complete = true }
      in
      let old =
        {
          v1_version = 1;
          v1_rcache = [ ("k", { Cache.exit_code = 0; output = "x\n" }) ];
          v1_vcache = [ (("sync", 3, 1), [ ("r0|0|1|1", (3, outcome)) ]) ];
        }
      in
      let module Checkpoint = Layered_runtime.Checkpoint in
      ignore
        (Checkpoint.save ~dir ~name:"serve-cache"
           ~meta:(Checkpoint.make_meta ~progress:2 ())
           ~payload:(Marshal.to_string old [])
          : Checkpoint.saved);
      let rcache = Cache.create () and vcache = Valence_query.create_cache () in
      check_int "a version-1 spill loads cold" 0 (Spill.load ~dir ~rcache ~vcache);
      check_int "result cache untouched" 0 (Cache.entries rcache);
      check_int "no classifier built" 0 (Valence_query.cache_entries vcache))

(* A spill from a build with a model this one has no row for: the
   stranger's entries are skipped, no classifier is built for it, and
   the known model's memo still serves its next query without a miss. *)
let test_spill_unknown_model () =
  let vcache = Valence_query.create_cache () in
  let query cache =
    (Valence_query.run ~cache ~model:"sync" ~n:3 ~t:1 ~depth:3 ()).Valence_query.verdicts
  in
  let cold = query vcache in
  let outcome =
    { Layered_core.Valence.vals = Layered_core.Vset.empty; complete = true }
  in
  let stranger = (("future", 3, 1), [ ([| "r0"; "a"; "b"; "c" |], (3, outcome)) ]) in
  let vcache' = Valence_query.create_cache () in
  Valence_query.import_spill vcache' (stranger :: Valence_query.export_spill vcache);
  check_int "only the known model gets a classifier" 1
    (Valence_query.cache_entries vcache');
  Stats.reset ();
  check "verdicts survive the import" true (query vcache' = cold);
  check_int "served from the imported memo" 0
    (Stats.snapshot ()).Stats.valence_cache_misses

(* The retention depth is a parameter now (--spill-keep on the CLI):
   keep=1 must leave at most one generation on disk, and that survivor
   must still load. *)
let test_spill_keep () =
  with_tmp_dir (fun dir ->
      let rcache = Cache.create () in
      Cache.add rcache "k" { Cache.exit_code = 0; output = "x\n" };
      let vcache = Valence_query.create_cache () in
      List.iter
        (fun _ ->
          match Spill.save ~keep:1 ~dir ~rcache ~vcache () with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("spill save: " ^ e))
        [ 1; 2; 3; 4 ];
      check "keep=1 leaves a single generation" true
        (Array.length (Sys.readdir dir) <= 1);
      check "the surviving generation still loads" true
        (Spill.load ~dir ~rcache:(Cache.create ())
           ~vcache:(Valence_query.create_cache ())
        > 0))

(* ------------------------------------------------------------------ *)
(* Slow-loris: a half-sent request line trips the idle deadline *)

let test_slow_loris () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lsrv-loris-%d.sock" (Unix.getpid ()))
  in
  let cfg =
    {
      (Server.default_config ~socket_path:path) with
      request_timeout_s = 0.;
      idle_timeout_s = 0.3;
      install_signals = false;
    }
  in
  let dom = Domain.spawn (fun () -> Server.run cfg) in
  let rec wait n =
    if Sys.file_exists path then ()
    else if n = 0 then Alcotest.fail "server socket never appeared"
    else (
      Unix.sleepf 0.05;
      wait (n - 1))
  in
  wait 100;
  (* half a request line, never terminated: a raw fragment written
     outside Client (which would append the newline) *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let frag = "{\"op\":\"cla" in
  ignore (Unix.write_substring fd frag 0 (String.length frag));
  (* meanwhile an honest client keeps being served *)
  (match Client.connect path with
  | Error e -> Alcotest.fail e
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.request c Protocol.Stats_query ~timeout_s:10. with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("honest client starved: " ^ e)));
  (* the stalled connection gets a structured timeout, then EOF *)
  let buf = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 5. in
  let rec read_all acc =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0. then acc
    else
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> acc
      | _ -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> acc
          | n -> read_all (acc ^ Bytes.sub_string buf 0 n)
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
              acc)
  in
  let answer = read_all "" in
  Unix.close fd;
  (match String.index_opt answer '\n' with
  | None -> Alcotest.fail "slow-loris connection got no timeout response"
  | Some i -> (
      match Protocol.decode_response (String.sub answer 0 i) with
      | Ok (Protocol.Resp_error { code = Protocol.Timeout; id = None; _ }) -> ()
      | _ -> Alcotest.fail "stalled connection not answered with a timeout error"));
  (* daemon still healthy: shut it down over the wire *)
  (match Client.connect path with
  | Error e -> Alcotest.fail e
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.request c Protocol.Shutdown ~timeout_s:10. with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("shutdown after loris: " ^ e)));
  check_int "clean exit code" 0 (Domain.join dom)

(* ------------------------------------------------------------------ *)
(* End to end crash recovery: supervised daemon, replaying client *)

let test_replay_after_crash () =
  with_tmp_dir (fun dir ->
      let path =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "lsrv-replay-%d.sock" (Unix.getpid ()))
      in
      let cfg =
        {
          (Server.default_config ~socket_path:path) with
          request_timeout_s = 0.;
          idle_timeout_s = 0.;
          spill_dir = Some dir;
          spill_every = 1;
          install_signals = false;
        }
      in
      let dom =
        Domain.spawn (fun () ->
            Layered_check.Serve_oracles.run_inprocess ~config:quiet_sup (fun () -> Server.run cfg))
      in
      let rec wait n =
        if Sys.file_exists path then ()
        else if n = 0 then Alcotest.fail "server socket never appeared"
        else (
          Unix.sleepf 0.05;
          wait (n - 1))
      in
      wait 100;
      (* the crash site is visited once per response: with 3 requests +
         shutdown it fires within any seed's firing window (< 3) *)
      Fault.arm ~seed:1 Fault.Serve_crash_before_reply;
      let outcome =
        Fun.protect ~finally:Fault.disarm (fun () ->
            (match
               Client.connect_err
                 ~retry:{ fast_retry with Client.connect_deadline_s = 5. }
                 path
             with
            | Error e -> Alcotest.fail (Client.error_message e)
            | Ok c ->
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    List.iter
                      (fun id ->
                        let req =
                          Protocol.Classify_valence
                            { model = "sync"; n = 3; t = 1; depth = id }
                        in
                        match Client.request c ~id req ~timeout_s:30. with
                        | Error e ->
                            Alcotest.fail
                              (Printf.sprintf "request %d not recovered: %s" id e)
                        | Ok line -> (
                            match Protocol.decode_response line with
                            | Ok (Protocol.Resp_ok { id = Some got; _ }) ->
                                check_int "response id echoes the request" id got
                            | _ ->
                                Alcotest.fail
                                  (Printf.sprintf "request %d answered badly" id)))
                      [ 1; 2; 3 ];
                    check "the injected crash fired" true (Fault.fired () > 0);
                    check "the client replayed through it" true
                      (Client.replays c > 0);
                    match Client.request c Protocol.Shutdown ~timeout_s:10. with
                    | Ok _ -> ()
                    | Error e -> Alcotest.fail ("shutdown: " ^ e)));
            Domain.join dom)
      in
      check "supervisor absorbed at least one crash" true
        (outcome.Supervisor.restarts > 0);
      check "no crash loop" false outcome.Supervisor.gave_up;
      ignore (try Unix.unlink path with Unix.Unix_error _ -> ()))

let () =
  Alcotest.run "layered_serve"
    [
      ( "jsonx",
        [
          Alcotest.test_case "values roundtrip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_jsonx_rejects;
          Alcotest.test_case "unicode escapes" `Quick test_jsonx_unicode_escape;
          Alcotest.test_case "nesting cap" `Quick test_jsonx_depth_cap;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "requests roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "responses roundtrip" `Quick test_response_roundtrip;
          Alcotest.test_case "rejection paths" `Quick test_request_rejections;
          Alcotest.test_case "experiment id canonicalised" `Quick
            test_request_canonical_experiment;
          Alcotest.test_case "cache keys" `Quick test_cache_key;
        ] );
      ( "framing",
        [
          Alcotest.test_case "partial lines" `Quick test_framing_partial_lines;
          Alcotest.test_case "many per read" `Quick test_framing_multi_per_read;
          Alcotest.test_case "oversized line" `Quick test_framing_oversized;
          Alcotest.test_case "custom response cap" `Quick test_framing_custom_cap;
        ] );
      ( "cache",
        [
          Alcotest.test_case "counters and replay" `Quick test_cache_counters;
          Alcotest.test_case "stats pp" `Quick test_stats_pp_mentions_result_cache;
        ] );
      ( "admission",
        [
          Alcotest.test_case "shed and admit" `Quick test_admission;
          Alcotest.test_case "per-client cap" `Quick
            test_admission_per_client_cap;
        ] );
      ( "backlog",
        [
          Alcotest.test_case "deadline then arrival order" `Quick
            test_backlog_order;
          Alcotest.test_case "fair-share eviction" `Quick
            test_backlog_fair_share;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "matches the one-shot renderer" `Quick
            test_dispatch_matches_renderer;
          Alcotest.test_case "cache replay" `Quick test_dispatch_cache_replay;
          Alcotest.test_case "containment" `Quick test_dispatch_containment;
          Alcotest.test_case "load shed" `Quick test_dispatch_shed;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end" `Quick test_end_to_end;
          Alcotest.test_case "pipelined disconnect" `Quick
            test_pipelined_disconnect;
          Alcotest.test_case "slow-loris idle timeout" `Quick test_slow_loris;
          Alcotest.test_case "signal storm on accept" `Quick
            test_signal_during_accept;
          Alcotest.test_case "concurrent single-flight" `Quick
            test_concurrent_singleflight;
          Alcotest.test_case "disconnect cancels only its own work" `Quick
            test_disconnect_cancels;
          Alcotest.test_case "two flights at --jobs 2" `Quick test_two_flights;
        ] );
      ( "client",
        [
          Alcotest.test_case "typed connect timeout" `Quick test_connect_timeout;
          Alcotest.test_case "deterministic backoff" `Quick
            test_backoff_deterministic;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "restart counting" `Quick test_supervisor_restarts;
          Alcotest.test_case "circuit breaker" `Quick test_supervisor_breaker;
        ] );
      ( "spill",
        [
          Alcotest.test_case "roundtrip" `Quick test_spill_roundtrip;
          Alcotest.test_case "retention depth" `Quick test_spill_keep;
          Alcotest.test_case "version-1 spill loads cold" `Quick
            test_spill_version_guard;
          Alcotest.test_case "unknown model skipped" `Quick
            test_spill_unknown_model;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "replay after crash" `Quick test_replay_after_crash;
        ] );
    ]
