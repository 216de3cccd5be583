(** Deterministic protocols for the synchronous message-passing substrate.

    A protocol describes one process: its initial local state, the message
    it sends to each destination in a round, its state transition on the
    vector of received messages, and its (write-once) decision.  The paper
    quantifies over all deterministic protocols; the engine
    ({!Engine.Make}) is a functor so experiments can instantiate several.

    Conventions: processes are named [1 .. n]; a process does not send to
    itself; [received.(j - 1) = None] means process [j]'s message was lost
    (or [j] sent nothing / is silenced).

    [send] and [step] must be pure and deterministic: an engine calls
    each at most once per distinct input within a layer and shares the
    result across that layer's successors (see {!Engine}). *)

open Layered_core

module type S = sig
  type local
  type msg

  val name : string
  val init : n:int -> pid:Pid.t -> input:Value.t -> local

  (** Message for destination [dest] in the given (1-based) round; [None] =
      no message. *)
  val send : n:int -> round:int -> pid:Pid.t -> local -> dest:Pid.t -> msg option

  val step : n:int -> round:int -> pid:Pid.t -> local -> received:msg option array -> local
  val decision : local -> Value.t option

  (** Canonical encoding of the local state (equal keys = equal states). *)
  val key : local -> string

  (** Canonical encoding of a message (used by the asynchronous synchronic
      variant, whose environment state holds in-transit messages). *)
  val msg_key : msg -> string

  val pp : Format.formatter -> local -> unit
end
