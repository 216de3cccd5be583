open Layered_analysis
module Budget = Layered_runtime.Budget
module Pool = Layered_runtime.Pool
module Fault = Layered_runtime.Fault
module Report = Layered_core.Report

type ctx = {
  pool : Pool.t;
  vcache : Valence_query.cache;
  rcache : Cache.t;
  admission : Admission.config;
  stop : bool Atomic.t;
}

let create_ctx ~pool ~admission () =
  {
    pool;
    vcache = Valence_query.create_cache ();
    rcache = Cache.create ();
    admission;
    stop = Atomic.make false;
  }

let exit_trunc = 3

(* ------------------------------------------------------------------ *)
(* Renderers: same pretty-printers, same layout, same trailing lines   *)
(* as the one-shot CLI, captured into a string.                        *)

let with_buffer f =
  let b = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer b in
  let code = f ppf in
  Format.pp_print_flush ppf ();
  (code, Buffer.contents b)

(* Classification runs deadline-free by design: a deadline
   mid-exploration would make verdicts depend on cache warmth (a warm
   memo answers before the deadline, a cold one trips it), breaking the
   guarantee that responses are independent of request history.  The
   caps in [Protocol] bound the work instead.  [?budget] therefore
   carries only a {e cancellation} token (a limit-free budget child):
   a cancelled walk degrades to Unknown verdicts and caches nothing,
   and the dispatcher discards the output in favour of a [cancelled]
   error — warm-cache determinism is untouched. *)
let classify_output ?cache ?budget ~model ~n ~t ~depth () =
  with_buffer (fun ppf ->
      let q = Valence_query.run ?budget ?cache ~model ~n ~t ~depth () in
      Format.fprintf ppf "%a" Valence_query.pp q;
      0)

let sweep_output ?budget ~model ~n ~t ~depth () =
  with_buffer (fun ppf ->
      let sweep = Sweep.run ?budget ~model ~n ~t ~depth () in
      Format.fprintf ppf "%a" Sweep.pp sweep;
      match sweep.Sweep.status with Budget.Complete -> 0 | _ -> exit_trunc)

let run_experiment_output ?budget ~id () =
  let e =
    match Registry.find id with
    | Some e -> e
    | None -> invalid_arg ("Dispatch: unknown experiment " ^ id)
  in
  with_buffer (fun ppf ->
      let results = Registry.run_all ?budget [ e ] in
      let rows =
        List.concat_map
          (fun ((e : Registry.experiment), rows) ->
            Format.fprintf ppf "== %s: %s@." e.id e.title;
            Format.fprintf ppf "%a" Report.pp_table rows;
            Format.fprintf ppf "@.";
            rows)
          results
      in
      let tripped = Option.bind budget Budget.tripped in
      (match tripped with
      | Some reason ->
          Format.fprintf ppf
            "TRUNCATED: budget exhausted (%a); the report above is partial.@."
            Budget.pp_reason reason
      | None -> ());
      if not (Report.all_pass rows) then begin
        Format.fprintf ppf "FAILURES among %d checks.@." (List.length rows);
        1
      end
      else
        match tripped with
        | Some _ -> exit_trunc
        | None ->
            Format.fprintf ppf "All %d checks passed.@." (List.length rows);
            0)

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)

(* Task body for the concurrent dispatcher: runs on a pool worker, so
   inner parallelism is disabled (Pool combinators must not be nested
   on the same pool; serial and pooled renderings are byte-identical by
   construction) and the request's budget token is threaded everywhere
   — into classification as a pure cancellation child, so a disconnect
   or an eviction interrupts the walk without ever imposing a deadline
   on verdicts.  The leader-crash site lives here: every task is the
   leader of exactly one single-flight computation. *)
let execute_concurrent ctx ~budget req =
  if Fault.point Fault.Serve_handler_raise then
    raise (Fault.Injected Fault.Serve_handler_raise);
  if Fault.point Fault.Serve_singleflight_leader_crash then
    raise (Fault.Injected Fault.Serve_singleflight_leader_crash);
  match req with
  | Protocol.Classify_valence { model; n; t; depth } ->
      let cancel_token = Budget.child budget in
      classify_output ~cache:ctx.vcache ~budget:cancel_token ~model ~n ~t
        ~depth ()
  | Protocol.Sweep { model; n; t; depth } ->
      sweep_output ~budget ~model ~n ~t ~depth ()
  | Protocol.Run_experiment { id } -> run_experiment_output ~budget ~id ()
  | Protocol.Stats_query | Protocol.Shutdown -> assert false
