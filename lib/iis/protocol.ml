(** Deterministic protocols for the iterated immediate-snapshot model
    (Borowsky-Gafni [6], one of the models to which Section 7 notes the
    paper's equivalences extend; it also inspired the permutation
    layering of Section 5.1).

    In round [r] every process writes a value into the one-shot memory
    [M_r] — computed from its state at the start of the round, the
    write-then-snapshot discipline — and receives an immediate snapshot:
    the writes of every process scheduled in its own concurrency class or
    earlier.

    [write] and [step] must be pure and deterministic: the engine calls
    each at most once per distinct input within a layer (a step once per
    process and view) and shares the result across that layer's
    successors. *)

open Layered_core

module type S = sig
  type local
  type reg

  val name : string
  val init : n:int -> pid:Pid.t -> input:Value.t -> local

  (** Value written into this round's memory, from the round-start
      state. *)
  val write : n:int -> pid:Pid.t -> local -> reg

  (** Consume the immediate snapshot: the [(pid, value)] pairs visible to
      this process, sorted by pid (always including its own write). *)
  val step : n:int -> pid:Pid.t -> local -> snapshot:(Pid.t * reg) list -> local

  val decision : local -> Value.t option
  val key : local -> string
  val reg_key : reg -> string
  val pp : Format.formatter -> local -> unit
end
