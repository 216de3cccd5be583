(** The result signature of {!Engine.Make}, in its own compilation unit
    so both [engine.ml] and [engine.mli] can name it.  See {!Engine} for
    the model-level documentation. *)

open Layered_core

module type S = sig
  type local
  (** the protocol's per-process state ([P.local] of the instantiation) *)

  type state = private {
    round : int;  (** number of completed rounds *)
    locals : local array;  (** index [i - 1] holds process [i]'s state *)
    failed : bool array;  (** environment failure record *)
    interned : Intern.slot;  (** memo cell for the state's {!Intern.meta} *)
  }

  (** Messages from [sender] to every destination in [blocked] are dropped
      in the upcoming round. *)
  type omission = { sender : Pid.t; blocked : Pid.t list }

  (** Simultaneous omissions by distinct senders.  The layerings of the
      paper only ever use a single omission per round; the general form
      supports exhaustive protocol verification. *)
  type action = omission list

  val n_of : state -> int
  val initial : inputs:Value.t array -> state

  (** [Con_0]: one initial state per assignment of [values] to processes. *)
  val initial_states : n:int -> values:Value.t list -> state list

  (** Execute one synchronous round under [action]. *)
  val apply : record_failures:bool -> state -> action -> state

  (** [x (j, [k])] in the paper's notation: a single omission by [j] to the
      prefix [{1, ..., k}]. *)
  val apply_jk : record_failures:bool -> state -> Pid.t -> int -> state

  (** Identity, similarity and valence wiring ({!Engine_core}).  A
      process's component is its failure bit plus local key, so
      [agree_modulo x y j] also compares failure records except at [j]
      (the "version for this model" refinement — see DESIGN.md), and
      [canon] is sound whenever the protocol's local keys are
      process-id-free. *)
  include Engine_core.S with type state := state

  val failed_count : state -> int
  val nonfailed : state -> Pid.t list

  (** {1 Layerings} *)

  (** The environment actions generating [S_1(x)]: [(j, [k])] for
      [1 <= j <= n], [0 <= k <= n]. *)
  val s1_actions : state -> action list

  (** [S_1(x)] (Section 5): the states [x (j, [k])] for [1 <= j <= n],
      [0 <= k <= n], de-duplicated. *)
  val s1 : record_failures:bool -> state -> state list

  (** The environment actions generating [S^t(x)]: failure-free, and —
      while fewer than [t] processes are failed — one fresh prefix
      omission or declaration crash per non-failed sender. *)
  val st_actions : t:int -> state -> action list

  (** [S^t(x)] (Section 6): [S_1(x)] while fewer than [t] processes are
      failed, otherwise only the failure-free successor. *)
  val st : t:int -> state -> state list

  (** Render an action, e.g. ["(2,[1..3])"], ["(2,declare)"] or
      ["(clean)"]. *)
  val pp_action : Format.formatter -> action -> unit

  (** {1 Generalised mobile layering}

      Santoro-Widmayer's model allows the dynamic fault to move; the
      paper's [S_1] uses one mobile omitter per round.  [s_multi] allows
      up to [omitters] distinct senders to omit (prefix-blocked) in the
      same round — a strictly stronger mobile adversary, under which the
      impossibility analysis goes through a fortiori (experiment E17). *)

  val s_multi_actions : omitters:int -> state -> action list

  (** De-duplicated successors under {!s_multi_actions}, without failure
      recording (mobile semantics).  [s_multi ~omitters:1] coincides with
      [s1 ~record_failures:false]. *)
  val s_multi : omitters:int -> state -> state list

  (** {1 Adversary enumeration (for exhaustive protocol verification)} *)

  (** All actions with at most [max_new] fresh omitters, each blocking any
      subset of its destinations, subject to the budget of
      [remaining_failures]; silenced processes are implicit.  Includes the
      failure-free action. *)
  val all_actions : max_new:int -> remaining_failures:int -> state -> action list

  val explore_spec : record_failures:bool -> state Explore.spec
  val pp : Format.formatter -> state -> unit
end
