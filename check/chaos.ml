module Fault = Layered_runtime.Fault
module Report = Layered_core.Report

let oracles = Oracle.all @ Serve_oracles.all
let find name = List.find_opt (fun (o : Oracle.t) -> o.name = name) oracles

let rows ?(jobs = 2) ?names () =
  let selected =
    match names with
    | None -> oracles
    | Some ns -> List.filter (fun (o : Oracle.t) -> List.mem o.name ns) oracles
  in
  List.map
    (fun (o : Oracle.t) ->
      let v = o.check ~jobs in
      Report.check ~id:"ORACLE" ~claim:o.name ~params:"" ~expected:o.what
        ~measured:v.detail v.ok)
    selected

type cell = {
  site : Fault.site;
  oracle : string;
  mutable armed_trials : int;
  mutable detected : int;
  mutable unexercised : int;
  mutable control_failures : int;
  mutable notes : string list;
}

type report = { seed : int; trials : int; cells : cell list }

(* Which oracles must catch which fault.  At least three detectors per
   site; the workloads are sized so any armed run visits the site at
   least three times, covering every seed-derived firing index (< 3). *)
let pairings =
  [
    ( Fault.Drop_successor,
      [
        "serial-parallel/sync";
        "serial-parallel/mobile";
        "serial-parallel/tree";
        "sym/orbit-eq";
        "sym/report-eq";
      ] );
    ( Fault.Duplicate_state,
      [
        "serial-parallel/sync";
        "serial-parallel/mobile";
        "serial-parallel/tree";
        "sym/orbit-eq";
        "sym/report-eq";
      ] );
    ( Fault.Corrupt_dedup_shard,
      [
        "serial-parallel/sync";
        "serial-parallel/mobile";
        "conservation/sync";
        "sym/orbit-eq";
        "sym/report-eq";
      ] );
    ( Fault.Worker_raise,
      [ "containment/map"; "containment/frontier"; "containment/registry" ] );
    (Fault.Worker_stall, [ "timing/map"; "timing/frontier"; "timing/iter" ]);
    ( Fault.Spurious_cancel,
      [ "complete/frontier"; "complete/consensus"; "complete/omission" ] );
    ( Fault.Flip_valence_bit,
      [ "valence-perm/floodset"; "valence-perm/early"; "valence-perm/mobile" ] );
    ( Fault.Torn_checkpoint_write,
      [ "recovery/rollback"; "resume-eq/frontier"; "resume-eq/registry" ] );
    ( Fault.Corrupt_checkpoint_crc,
      [ "recovery/rollback"; "resume-eq/frontier"; "resume-eq/registry" ] );
    ( Fault.Serve_handler_raise,
      [
        "serve/oneshot-eq";
        "serve/interleave-eq";
        "serve/jobs-eq";
        "serve/cancel-clean";
        "serve/singleflight-eq";
        "serve/fair-share";
      ] );
    ( Fault.Serve_cancel_midflight,
      [ "serve/cancel-clean"; "serve/singleflight-eq"; "serve/fair-share" ] );
    ( Fault.Serve_singleflight_leader_crash,
      [ "serve/singleflight-eq"; "serve/cancel-clean"; "serve/fair-share" ] );
    ( Fault.Serve_corrupt_response,
      [ "serve/oneshot-eq"; "serve/interleave-eq"; "serve/jobs-eq" ] );
    ( Fault.Serve_torn_frame,
      [ "serve/crash-recover-eq"; "serve/warm-restart"; "serve/replay-idempotent" ] );
    ( Fault.Serve_stalled_client,
      [ "serve/crash-recover-eq"; "serve/warm-restart"; "serve/replay-idempotent" ] );
    ( Fault.Serve_crash_before_reply,
      [ "serve/crash-recover-eq"; "serve/warm-restart"; "serve/replay-idempotent" ] );
  ]

(* Any exception out of an oracle counts as the oracle failing — under
   injection that is a detection (the fault surfaced), and in a control
   run it is a genuine anomaly either way. *)
let run_check (o : Oracle.t) ~jobs =
  try o.Oracle.check ~jobs
  with e -> { Oracle.ok = false; detail = "raised " ^ Printexc.to_string e }

let run ?(jobs = 2) ?(sites = Fault.all) ?trials ~seed () =
  let jobs = max 2 jobs in
  let pairs = List.filter (fun (s, _) -> List.mem s sites) pairings in
  let flat = List.concat_map (fun (s, os) -> List.map (fun o -> (s, o)) os) pairs in
  if flat = [] then invalid_arg "Chaos.run: no fault sites selected";
  let trials = Option.value trials ~default:(List.length flat) in
  let cells =
    List.map
      (fun (site, oracle) ->
        {
          site;
          oracle;
          armed_trials = 0;
          detected = 0;
          unexercised = 0;
          control_failures = 0;
          notes = [];
        })
      flat
  in
  let cell_of site oracle =
    List.find (fun c -> c.site = site && c.oracle = oracle) cells
  in
  let npairs = List.length flat in
  for i = 0 to trials - 1 do
    let site, oname = List.nth flat (i mod npairs) in
    let oracle =
      match find oname with
      | Some o -> o
      | None -> invalid_arg ("Chaos.run: unknown oracle " ^ oname)
    in
    let c = cell_of site oname in
    Fault.disarm ();
    let control = run_check oracle ~jobs in
    if not control.Oracle.ok then begin
      c.control_failures <- c.control_failures + 1;
      c.notes <- Printf.sprintf "trial %d control: %s" i control.Oracle.detail :: c.notes
    end;
    Fault.arm ~seed:(seed + i) site;
    let armed =
      Fun.protect ~finally:Fault.disarm (fun () -> run_check oracle ~jobs)
    in
    let fired = Fault.fired () > 0 in
    c.armed_trials <- c.armed_trials + 1;
    if not fired then begin
      c.unexercised <- c.unexercised + 1;
      c.notes <-
        Printf.sprintf "trial %d armed: fault never fired (%d site visits)" i
          (Fault.hits ())
        :: c.notes
    end
    else if armed.Oracle.ok then
      c.notes <- Printf.sprintf "trial %d armed: fault fired but went undetected" i :: c.notes
    else c.detected <- c.detected + 1
  done;
  { seed; trials; cells }

let cell_ok c =
  c.armed_trials > 0 && c.detected = c.armed_trials && c.unexercised = 0
  && c.control_failures = 0

let ok r = List.for_all cell_ok r.cells

let pp ppf r =
  Format.fprintf ppf "chaos: seed=%d trials=%d cells=%d@," r.seed r.trials
    (List.length r.cells);
  Format.fprintf ppf "%-22s %-26s %6s %9s %12s %9s@," "site" "oracle" "armed"
    "detected" "unexercised" "controls";
  List.iter
    (fun c ->
      Format.fprintf ppf "%-22s %-26s %6d %9d %12d %9s@," (Fault.site_name c.site)
        c.oracle c.armed_trials c.detected c.unexercised
        (if c.control_failures = 0 then "clean"
         else Printf.sprintf "%d failed" c.control_failures))
    r.cells;
  List.iter
    (fun c ->
      List.iter
        (fun n ->
          Format.fprintf ppf "note [%s x %s]: %s@," (Fault.site_name c.site) c.oracle n)
        (List.rev c.notes))
    r.cells;
  let full = List.length (List.filter cell_ok r.cells) in
  Format.fprintf ppf "detection: %d/%d cells fully detected with clean controls@," full
    (List.length r.cells);
  Format.fprintf ppf "verdict: %s" (if ok r then "PASS" else "FAIL")

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"seed\":%d,\"trials\":%d,\"ok\":%b,\"cells\":[" r.seed r.trials
       (ok r));
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"site\":\"%s\",\"oracle\":\"%s\",\"armed\":%d,\"detected\":%d,\"unexercised\":%d,\"control_failures\":%d,\"notes\":[%s]}"
           (Fault.site_name c.site) (json_escape c.oracle) c.armed_trials c.detected
           c.unexercised c.control_failures
           (String.concat ","
              (List.rev_map (fun n -> "\"" ^ json_escape n ^ "\"") c.notes))))
    r.cells;
  Buffer.add_string b "]}\n";
  Buffer.contents b
