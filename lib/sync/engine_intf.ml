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

  (** One round's choice of the message adversary: the processes it
      marks faulty (distinct) and the messages it drops.  A receive
      omission (faulty [r] misses [s]) is the drop
      [{ sender = s; blocked = [ r ] }]. *)
  type action = { marks : Pid.t list; drops : omission list }

  (** [omit os] drops [os] and marks every sender in [os]: the crash and
      mobile form.  [omit []] is the failure-free round, and
      [omit [ { sender = j; blocked = [] } ]] the declaration-only crash
      of [j]. *)
  val omit : omission list -> action

  (** What a mark means. *)
  type discipline =
    | Mobile  (** nothing is recorded (Section 5, model [M^mf]) *)
    | Crash
        (** recorded, and the process is silent from the next round on
            (Section 6) *)
    | Omission
        (** recorded, and the process keeps sending: the send and general
            omission models *)

  val n_of : state -> int
  val initial : inputs:Value.t array -> state

  (** [Con_0]: one initial state per assignment of [values] to processes. *)
  val initial_states : n:int -> values:Value.t list -> state list

  (** Execute one synchronous round under [action].  Raises
      [Invalid_argument] when a mark, sender or blocked receiver is not a
      pid of [1..n] ("bad pid") or a process is marked twice; under
      [Omission] also when a marked process is already faulty, or when a
      drop's sender and receiver are both non-faulty after the marks. *)
  val apply : discipline -> state -> action -> state

  (** Identity, similarity and valence wiring ({!Engine_core}).  A
      process's component is its failure bit plus local key, so
      [agree_modulo x y j] also compares failure records except at [j]
      (the "version for this model" refinement — see DESIGN.md), and
      [canon] is sound whenever the protocol's local keys are
      process-id-free. *)
  include Engine_core.S with type state := state

  val failed_count : state -> int
  val nonfailed : state -> Pid.t list

  (** {1 Message adversaries} *)

  (** A discipline and the actions it may choose at a state: they depend
      on the process count and the failure record (index [i - 1] for
      process [i]) only.  An adversary is made only here, so that it
      carries its actions compiled for the layer kernel: on first use
      once per (n, failure set), each into the senders whose message
      every receiver gets and the failure set after the round. *)
  type adversary = private {
    discipline : discipline;
    actions : n:int -> failed:bool array -> action list;
    rows : int -> int -> (int, int) Engine_core.rows;
        (** [rows n failed]: [actions] compiled, [failed] as a bitmask *)
  }

  (** [actions_at adv x] is [adv.actions] at [x]'s process count and
      failure record. *)
  val actions_at : adversary -> state -> action list

  (** The de-duplicated successors of a state under [adv], in action
      order: [apply adv.discipline x] over [adv.actions ~n ~failed] at
      [x], built by the layer kernel ({!Engine_core.layer}) from
      [adv.rows].  At a state each [P.send] runs at most once per
      (sender, receiver), never for a crashed sender, each [P.step] once
      per (receiver, senders whose message arrives), and only an action
      whose processes and failure set end in a new combination builds
      its successor.  Nothing is interned. *)
  val layer : adversary -> state -> state list

  (** [List.length (layer adv x)], counted without building a
      successor. *)
  val layer_size : adversary -> state -> int

  (** [S_1] (Section 5): the actions [(j, [k])] for [1 <= j <= n],
      [0 <= k <= n] — one omission by [j] to the prefix [{1, ..., k}] —
      under [Mobile]. *)
  val s1 : adversary

  (** [S^t] (Section 6): the failure-free action and, while fewer than
      [t] processes are failed, one fresh prefix omission or declaration
      crash per non-failed sender, under [Crash]. *)
  val st : t:int -> adversary

  (** Santoro-Widmayer's mobile fault may move; [s_multi] lets up to
      [omitters] distinct senders omit (prefix-blocked) in the same
      round, under [Mobile] — a strictly stronger adversary, under which
      the impossibility analysis goes through a fortiori (experiment
      E17).  [layer (s_multi ~omitters:1)] coincides with [layer s1]. *)
  val s_multi : omitters:int -> adversary

  (** Every crash action for exhaustive verification: up to [max_new]
      fresh crashes per round and [t] in all, each losing any subset of
      its messages (the empty subset is a declaration crash).  Includes
      the failure-free action.  Raises [Invalid_argument] on a negative
      [max_new]. *)
  val crash : max_new:int -> t:int -> adversary

  (** Every omission action: up to [max_new] fresh marks per round and
      [t] in all, and any subset of each faulty process's outgoing
      messages dropped; with [general] also any subset of its incoming
      ones.  Raises [Invalid_argument] on a negative [max_new]. *)
  val omission : general:bool -> max_new:int -> t:int -> adversary

  (** [walk ?budget adv ~rounds ~visit roots] visits, depth-first, every
      distinct state reachable from [roots] under [adv] in at most
      [rounds] rounds, once each, expanding each state by {!layer}.
      Each new state is charged to [budget]; an exhausted budget stops
      the walk before that state, truncated at its round. *)
  val walk :
    ?budget:Layered_runtime.Budget.t ->
    adversary ->
    rounds:int ->
    visit:(state -> unit) ->
    state list ->
    Layered_runtime.Budget.status

  (** Render an action's drops, e.g. ["(2,{1,3})"], ["(2,declare)"] (a
      drop of nothing: the declaration crash under [omit]) or
      ["(clean)"]. *)
  val pp_action : Format.formatter -> action -> unit

  val pp : Format.formatter -> state -> unit
end
