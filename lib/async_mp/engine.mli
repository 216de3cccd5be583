(** Asynchronous message passing and the permutation layering [S^per]
    (Section 5.1).

    The environment state is the multiset of in-transit messages.  A local
    phase of process [i] sends at most one message per destination — with
    content determined by [i]'s phase-start state, mirroring the
    write-then-snapshot structure of immediate-snapshot executions — and
    delivers every outstanding message addressed to [i] (in arrival
    order).  Environment actions are schedules:

    - [Full [p1; ...; pn]] — each process performs a phase, in order;
    - [Drop_last [p1; ...; p_{n-1}]] — same, with one process left out;
    - a schedule containing one [Pair (pk, pk')] — the two processes
      perform their phases concurrently against the pre-pair state, so
      neither sees the other's fresh messages.

    This is the paper's message-passing analogue of immediate-snapshot
    executions; the FLP diamond is literally
    [apply (apply x (Full [...; pn])) (Drop_last [...]) =
     apply (apply x (Drop_last [...])) (Full [pn; ...])]
    — checked as state equality in tests and experiment E6. *)

open Layered_core

type entry =
  | Solo of Pid.t
  | Pair of Pid.t * Pid.t  (** concurrent adjacent pair *)

type schedule = entry list

module Make (P : Protocol.S) : sig
  type state = private {
    round : int;  (** applied schedules *)
    locals : P.local array;
    mail : (Pid.t * P.msg) list array;
        (** [mail.(d - 1)]: messages in transit to [d], as [(src, msg)],
            sorted by source and FIFO within a source (the canonical
            delivery order; cross-source interleaving of concurrent sends
            is semantically arbitrary) *)
    interned : Intern.slot;  (** memo cell for the state's {!Intern.meta} *)
  }

  val n_of : state -> int
  val initial : inputs:Value.t array -> state
  val initial_states : n:int -> values:Value.t list -> state list

  (** One phase (or concurrent pair of phases) — the micro-step. *)
  val apply_entry : state -> entry -> state

  (** [apply x s] validates [s] (distinct pids of [1..n]; [n] or [n - 1]
      of them; at most one pair, only in full schedules) and runs its
      entries, incrementing [round]. *)
  val apply : state -> schedule -> state

  (** All [S^per] schedules for [n] processes (full permutations, drop-last
      arrangements, adjacent-concurrent variants). *)
  val schedules : n:int -> schedule list

  (** The permutation layering: de-duplicated [apply x] over
      {!schedules}, in schedule order, built by the layer kernel
      ({!Engine_core.layer}).  The schedules are validated and compiled
      once per [n], each into two masks per process: the runners before
      its entry (its inbox) and those whose messages end in its final
      mailbox.  At a state a mask counts only the runners with a message
      for the process, so each [P.send] runs at most once, each [P.step]
      once per such inbox mask, and only a schedule whose processes end
      with a new combination of local states and mailboxes builds its
      successor.  Nothing is interned: a successor is interned when
      something first asks for its {!ident}.  The contract guards are those of
      [apply], but [sper] checks every send before any step, so a
      protocol that breaks two rules at once may be refused by a
      different guard than [apply] reports. *)
  val sper : state -> state list

  (** [List.length (sper x)], counted without building a successor. *)
  val sper_size : state -> int

  (** Identity, similarity and valence wiring ({!Engine_core}).  Part
      [i] bundles process [i]'s mailbox and local state, so
      [agree_modulo x y j] means rounds equal and, for every [i <> j],
      both [i]'s local state and [i]'s mailbox equal.  Messages
      addressed to [j] may differ: if [j] crashes they are never
      observed, so the crash-indistinguishability argument of Lemma 3.3
      is unaffected.  {b [canon] is unsound to quotient traversals by in
      this model}: mailbox entries carry sender pids. *)
  include Engine_core.S with type state := state

  (** Total number of in-transit messages (conservation checks). *)
  val in_transit : state -> int

  val pp : Format.formatter -> state -> unit
end

(** All permutations of a list (used by schedule enumeration and tests). *)
val permutations : 'a list -> 'a list list

(** Render a schedule, e.g. ["[1,{2,3}]"] or ["[2,1]"]. *)
val pp_schedule : Format.formatter -> schedule -> unit
