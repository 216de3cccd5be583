(** State-space shape sweeps: how fast each substrate's layered submodel
    grows, and how big its layers are.  Backs the CLI [layers] command and
    the growth ablation benches. *)

type level = {
  depth : int;
  reachable : int;  (** distinct states reachable within [depth] layers *)
  layer_min : int;  (** smallest layer among depth-boundary states *)
  layer_max : int;  (** largest layer *)
}

type t = {
  model : string;
  n : int;
  levels : level list;
  status : Layered_runtime.Budget.status;
      (** [Complete], or [Truncated] with [levels] the completed prefix *)
}

(** Durable-checkpoint configuration: snapshots go to [dir] every
    [every] completed BFS levels; with [resume] the sweep first loads
    the newest intact generation (if any) and continues from it instead
    of re-expanding the prefix.  A resumed budgeted sweep re-charges the
    snapshot's recorded state count and re-imposes its remaining
    deadline, so budget trips land at the same boundary as an
    uninterrupted run. *)
type checkpoint = { dir : string; every : int; resume : bool }

(** The snapshot base name [run] uses for a given sweep — one checkpoint
    lineage per (model, n, t, depth) so unrelated sweeps sharing a
    directory never cross-resume. *)
val checkpoint_name : model:string -> n:int -> t:int -> depth:int -> string

(** [run ?pool ?budget ~model ~n ~t ~depth ()] sweeps the layering of
    the {!Models} row named [model] from one mixed initial state (what
    [t] means is stated once, in {!Models}).  With a [pool] of more than
    one job, each level's frontier is expanded in parallel
    ({!Layered_runtime.Frontier}); results are deterministic and
    independent of the job count.  With a [budget], an infeasible sweep
    stops at the budget and reports the levels whose expansion completed
    (layer statistics are gathered during expansion, so truncation never
    re-pays for cut-off work).  A budget's soft watermark compacts the
    heap at level boundaries and leaves the output bytes unchanged (see
    {!Layered_runtime.Frontier}).  With [~symmetry:true] (default [false]) a sweep
    of a row that declares {!Models.t.renaming_closed} is quotiented by
    role-respecting process renamings: one representative per orbit is
    expanded, rows are orbit-weighted and so byte-identical.  On every
    other row the flag is a no-op.  The checkpoint meta records whether
    the quotient ran.  Raises [Invalid_argument] on an unknown model
    name. *)
val run :
  ?pool:Layered_runtime.Pool.t ->
  ?budget:Layered_runtime.Budget.t ->
  ?checkpoint:checkpoint ->
  ?symmetry:bool ->
  model:string ->
  n:int ->
  t:int ->
  depth:int ->
  unit ->
  t

val pp : Format.formatter -> t -> unit
