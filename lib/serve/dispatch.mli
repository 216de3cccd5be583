(** Request execution: one decoded request in, one rendered output out.

    {!execute_concurrent} is the task body the {!Dispatcher} runs for
    every compute request, on a pool worker (whole requests in
    parallel, no inner pool nesting).  The
    dispatcher contains whatever it raises (including an injected
    {!Layered_runtime.Fault}): the exception becomes an [internal] error
    response for that request only, and the daemon keeps serving.

    {b Byte-identity.}  The [output] field of an [ok] response is
    rendered by the same pretty-printers the one-shot CLI drives
    ({!Layered_analysis.Valence_query.pp}, {!Layered_analysis.Sweep.pp},
    the registry report layout), so a daemon answer diffs cleanly
    against [layered classify] / [layered layers] / [layered run].  The
    pure renderers are exposed so oracles can build reference outputs
    without going anywhere near the serve fault sites. *)

type ctx = {
  pool : Layered_runtime.Pool.t;
  vcache : Layered_analysis.Valence_query.cache;
      (** cross-request valence classifiers (the warm memo) *)
  rcache : Cache.t;  (** keyed result cache *)
  admission : Admission.config;
  stop : bool Atomic.t;  (** set by a [shutdown] request or a signal *)
}

(** [create_ctx ~pool ~admission ()] — fresh, empty caches; {!Spill}
    can persist both across daemon restarts. *)
val create_ctx :
  pool:Layered_runtime.Pool.t -> admission:Admission.config -> unit -> ctx

(** The CLI exit code for a budget-truncated result (3).  Truncated
    results are never cached — they reflect one request's deadline
    luck, not the query's answer. *)
val exit_trunc : int

(** [execute_concurrent ctx ~budget req] renders one compute request on
    the calling (pool-worker) thread: no inner pool parallelism, and
    [budget] threaded into the walk — classification receives it as a
    limit-free cancellation child, so verdicts stay deadline-free.  Home
    of the [serve_handler_raise] and [serve_singleflight_leader_crash]
    fault sites; raises whatever the handler (or an injected fault)
    raises — the dispatcher contains it. *)
val execute_concurrent :
  ctx -> budget:Layered_runtime.Budget.t -> Protocol.request -> int * string

(** {1 Pure renderers}

    Exactly the bytes the CLI prints on stdout for the same query,
    paired with the CLI exit code (0 pass, 1 failures, 3 truncated). *)

val classify_output :
  ?cache:Layered_analysis.Valence_query.cache ->
  ?budget:Layered_runtime.Budget.t ->
  model:string -> n:int -> t:int -> depth:int -> unit -> int * string

val sweep_output :
  ?budget:Layered_runtime.Budget.t ->
  model:string -> n:int -> t:int -> depth:int -> unit -> int * string

val run_experiment_output :
  ?budget:Layered_runtime.Budget.t -> id:string -> unit -> int * string
