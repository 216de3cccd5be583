(** The asynchronous read/write shared-memory model [M^rw] and its
    synchronic layering [S^rw] (Section 5.1).

    A virtual round has four stages [W1 R1 W2 R2] and is driven by an
    environment action:

    - [(j, Absent)]: the proper processes (all but [j]) write in [W1] and
      scan in [R1]; [j] does nothing this round.
    - [(j, Read_late k)] (written [(j, k)] in the paper, [0 <= k <= n]):
      proper processes write in [W1], [j] writes in [W2]; proper processes
      [i <= k] scan in [R1] (missing [j]'s fresh write), [j] and proper
      processes [i > k] scan in [R2].

    Every [S^rw]-run is fair — all processes but at most one take
    infinitely many local phases — which is why [S^rw] generates a
    layering of [M^rw] for deciding protocols.

    The model displays no finite failure: no process is ever failed at a
    (finite) state, so all processes' decisions witness valence. *)

open Layered_core

type slowness =
  | Absent  (** the action [(j, A)] *)
  | Read_late of int  (** the action [(j, k)]; [k] proper processes scan early *)

type action = { slow : Pid.t; mode : slowness }

(** Fine-grained schedule events, for validating that a layer is a legal
    interleaving of local phases. *)
type event =
  | Write of Pid.t  (** perform the phase's (optional) write *)
  | Scan of Pid.t  (** scan all registers and apply the protocol step *)

module Make (P : Protocol.S) : sig
  type state = private {
    phase : int;  (** completed virtual rounds *)
    locals : P.local array;
    regs : P.reg option array;  (** environment: register [V_i] at [i - 1] *)
    interned : Intern.slot;  (** memo cell for the state's {!Intern.meta} *)
  }

  val n_of : state -> int
  val initial : inputs:Value.t array -> state
  val initial_states : n:int -> values:Value.t list -> state list

  (** All actions available at a state with [n] processes:
      [(j, Absent)] and [(j, Read_late k)] for [j in 1..n], [k in 0..n]. *)
  val actions : n:int -> action list

  (** One virtual round.  Raises [Invalid_argument] when the slow
      process is not in [1..n] ("bad slow process") or a [Read_late k]
      has [k] outside [0..n] ("bad read-late count"). *)
  val apply : state -> action -> state

  (** [compile x a] is the [W1 R1 W2 R2] event schedule realising [a]. *)
  val compile : state -> action -> event list

  (** Apply raw events — the micro-step semantics of [M^rw] (restricted to
      whole phases).  [apply x a = apply_events x (compile x a)]. *)
  val apply_events : state -> event list -> state

  (** Each pid has at most one [Write] and at most one [Scan], with the
      [Write] first — i.e. the schedule is one legal local phase per
      participating process. *)
  val schedule_legal : event list -> bool

  (** Identity, similarity and valence wiring ({!Engine_core}).  Phase
      and the whole register vector form the header part, so
      [agree_modulo x y j] means phases equal, all registers equal, and
      locals of every [i <> j] equal.  {b [canon] is unsound to quotient
      traversals by in this model}: the register vector in the header
      is indexed by process. *)
  include Engine_core.S with type state := state

  (** The synchronic layering: [S^rw x] is the de-duplicated [apply x a]
      over {!actions}, in action order, built by the layer kernel
      ({!Engine_core.layer}).  The actions are compiled once per [n],
      each into the register vector every process scans and the vector
      the phase leaves; at a state each [P.write] runs at most once per
      process and each [P.step] once per (process, register vector),
      and only an action whose processes and registers end in a new
      combination builds its successor.  Nothing is interned. *)
  val srw : state -> state list

  (** [List.length (srw x)], counted without building a successor. *)
  val srw_size : state -> int

  val pp : Format.formatter -> state -> unit
end

(** Render an action, e.g. ["(2,A)"] or ["(2,k=1)"]. *)
val pp_action : Format.formatter -> action -> unit
