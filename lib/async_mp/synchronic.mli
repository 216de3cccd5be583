(** The synchronic layering for asynchronous {e message passing}.

    Section 5.1 proves the shared-memory impossibility via the synchronic
    layering [S^rw] and remarks that "a completely analogous impossibility
    proof can be given for asynchronous message passing as well", with the
    same layering structure.  This module realises that analogue: virtual
    rounds in which all but at most one process send and receive, with the
    slow process [j] either absent or late — its fresh round-[r] message
    is missed by the [k] "early" readers and stays in transit, to be
    delivered in a later round (asynchrony: unlike the mobile-failure
    model, nothing is ever lost).

    Delivery is FIFO per (source, destination): each receiving process gets
    the oldest eligible in-transit message from every source, so the
    {!Layered_sync.Protocol.S} one-message-per-sender interface fits.

    The Lemma 5.3 bridge [x(j,n)(j,A) = x(j,A)(j,0) modulo j] requires
    round-oblivious message content (the analogue of writes depending only
    on the local state); the bundled protocols satisfy this. *)

open Layered_core

type slowness =
  | Absent  (** [(j, A)]: [j] neither sends nor receives this round *)
  | Late of int
      (** [(j, k)]: [j] sends late; early readers [i <= k] miss [j]'s fresh
          message this round *)

type action = { slow : Pid.t; mode : slowness }

module Make (P : Layered_sync.Protocol.S) : sig
  type packet = private { src : Pid.t; dst : Pid.t; msg : P.msg; sent : int }

  type state = private {
    round : int;
    locals : P.local array;
    transit : packet list;  (** in-transit messages, oldest first *)
    interned : Intern.slot;  (** memo cell for the state's {!Intern.meta} *)
  }

  val n_of : state -> int
  val initial : inputs:Value.t array -> state
  val initial_states : n:int -> values:Value.t list -> state list
  val actions : n:int -> action list

  (** One virtual round.  Raises [Invalid_argument] when the slow
      process is not in [1..n] ("bad slow process") or a [Late k] has
      [k] outside [0..n] ("bad late count"). *)
  val apply : state -> action -> state

  (** The synchronic layering: de-duplicated [apply x] over {!actions},
      in action order, built by the layer kernel ({!Engine_core.layer}).
      The actions are compiled once per [n], each into the sender whose
      fresh packet each receiver misses and the transit it leaves.  At a
      state the round's fresh packets are built once per sender and
      shared by every successor, each [P.step] runs once per (receiver,
      sender whose fresh packet it misses), and only an action whose
      processes and transit end in a new combination builds its
      successor: a transit is classed by its packets' kept flags, one
      per packet, and its list is built only for a new successor.
      Nothing is interned. *)
  val smp : state -> state list

  (** [List.length (smp x)], counted without building a successor. *)
  val smp_size : state -> int

  (** Identity, similarity and valence wiring ({!Engine_core}).  Round
      and the whole transit list form the header part, compared
      unmasked.  {b [canon] is unsound to quotient traversals by in this
      model}: transit packets in the header carry src/dst pids. *)
  include Engine_core.S with type state := state

  val in_transit : state -> int
  val pp : Format.formatter -> state -> unit
end

(** Render an action, e.g. ["(2,A)"] or ["(2,k=1)"]. *)
val pp_action : Format.formatter -> action -> unit
