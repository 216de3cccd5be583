(** The chaos harness: seeded fault-injection trials asserting that the
    {!Oracle} checks detect every injected fault and pass every clean
    control.

    Each trial picks a (fault site, oracle) pair from a fixed pairing
    table (round-robin, so [trials >= ]number of pairs covers the whole
    matrix), runs the oracle once {e disarmed} (the control must pass),
    then once {e armed} with a trial-specific seed (the oracle must fail,
    and the fault must actually have fired — an armed run whose fault was
    never exercised proves nothing and is counted separately).

    The report is deterministic for a given [seed]/[trials]/[sites]
    selection: it contains no timings and no job counts, so its rendering
    is byte-identical across [--jobs] values as long as every cell is
    clean (anomaly notes may quote exception text). *)

(** {1 The oracles} *)

(** Every oracle: {!Oracle.all}, then {!Serve_oracles.all}.  Names are
    unique. *)
val oracles : Oracle.t list

val find : string -> Oracle.t option

(** Run every oracle (or those in [names]) and render the verdicts as
    report rows, [id]s ["ORACLE"]. *)
val rows : ?jobs:int -> ?names:string list -> unit -> Layered_core.Report.row list

(** {1 Fault-injection trials} *)

type cell = {
  site : Layered_runtime.Fault.site;
  oracle : string;
  mutable armed_trials : int;
  mutable detected : int;  (** armed runs the oracle failed, fault fired *)
  mutable unexercised : int;  (** armed runs whose fault never fired *)
  mutable control_failures : int;  (** disarmed runs the oracle failed *)
  mutable notes : string list;  (** anomaly diagnoses, newest first *)
}

type report = { seed : int; trials : int; cells : cell list }

(** The pairing table: for each site, the names of the oracles required
    to detect it (at least three each). *)
val pairings : (Layered_runtime.Fault.site * string list) list

(** [run ~seed ()] executes the trials.  [jobs] (clamped to at least 2
    so worker sites can fire) sizes the pools inside the oracles;
    [sites] restricts the matrix to a subset of fault sites; [trials]
    defaults to one per cell of the selected matrix, which arms every
    cell once.  Arms and disarms the process-global injector; never
    leaves it armed. *)
val run :
  ?jobs:int ->
  ?sites:Layered_runtime.Fault.site list ->
  ?trials:int ->
  seed:int ->
  unit ->
  report

(** Full marks: every cell of the selected matrix was exercised at least
    once, every armed run was detected, and every control passed. *)
val ok : report -> bool

val pp : Format.formatter -> report -> unit

(** One JSON object; schema documented in README.md. *)
val to_json : report -> string
