(** Exhaustive verification of synchronous consensus protocols against
    every strategy of a failure adversary.

    The checker walks ({!Layered_sync.Engine_intf.S.walk}) all runs of a
    protocol from every binary input vector, for [rounds] rounds, under
    one of three message adversaries, each with at most [max_new] fresh
    faulty processes per round and at most [t] in total:

    - [Crash] (Section 6): a crash loses an arbitrary subset of that
      round's messages, including none (a "declaration" crash at the
      round boundary), and silences the process from then on;
    - [Omission]: the send-omission model of the paper's introduction
      ("a faulty processor can fail to send messages altogether ... and
      thus behave as if it has crashed"): a faulty process keeps sending,
      and every round any subset of its outgoing messages is dropped;
    - [General_omission]: as [Omission], and any subset of a faulty
      process's incoming messages is dropped too.

    It reports whether Agreement, Validity and Decision-by-[rounds] hold
    among non-faulty processes, and the worst-case decision round. *)

type failures = Crash | Omission | General_omission

type result = {
  failures : failures;
  agreement_ok : bool;  (** among non-failed processes (plain consensus) *)
  uniform_agreement_ok : bool;
      (** among {e all} deciders, failed ones included (uniform
          consensus).  The classical (t+1)-round protocols achieve plain
          but not uniform agreement: a process that crashes mid-delivery
          may have decided on a value the survivors never see.  Reported
          for comparison under [Crash] only; no experiment expects it to
          hold. *)
  validity_ok : bool;
  termination_ok : bool;  (** all non-failed decided by [rounds] everywhere *)
  worst_decision_round : int;
      (** smallest [r] such that every reachable state at round [r] is
          terminal (equals [rounds + 1] if termination failed) *)
  states_explored : int;  (** distinct states, summed over input vectors *)
  status : Layered_runtime.Budget.status;
      (** [Complete], or [Truncated] — the boolean verdicts then cover
          only the states explored before the budget tripped: a reported
          violation is definitive, a clean result is not. *)
}

(** [max_new] defaults to 2.  Raises [Invalid_argument] when it is
    negative. *)
val check :
  protocol:(module Layered_sync.Protocol.S) ->
  failures:failures ->
  n:int ->
  t:int ->
  rounds:int ->
  ?max_new:int ->
  ?budget:Layered_runtime.Budget.t ->
  unit ->
  result

(** One line of verdicts; [uniform=] appears under [Crash] only. *)
val pp_result : Format.formatter -> result -> unit
