(** Deterministic protocols for the asynchronous message-passing model
    (Section 5.1, permutation layering).

    A {e local phase} of process [i] sends at most one message to each
    other process — with content determined by [i]'s state at the {e start}
    of the phase — and delivers every outstanding message addressed to [i].
    Determining the message content before the phase's deliveries is the
    message-passing counterpart of the write-then-snapshot structure of
    immediate-snapshot executions, and is what makes a layer's states that
    differ in one process's schedule position agree modulo that process
    (the paper's transposition argument).

    [send] and [step] must be pure and deterministic: the engine runs
    each process's [send] once per layer and its [step] once per set of
    processes whose phases precede its own, and shares the results
    across every schedule of the layer. *)

open Layered_core

module type S = sig
  type local
  type msg

  val name : string
  val init : n:int -> pid:Pid.t -> input:Value.t -> local

  (** Messages to send this phase, computed from the phase-start state: at
      most one per destination, destinations distinct from [pid]. *)
  val send : n:int -> pid:Pid.t -> local -> (Pid.t * msg) list

  (** Consume the drained inbox (in arrival order). *)
  val step : n:int -> pid:Pid.t -> local -> inbox:(Pid.t * msg) list -> local

  val decision : local -> Value.t option
  val key : local -> string
  val msg_key : msg -> string
  val pp : Format.formatter -> local -> unit
end
