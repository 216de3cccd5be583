(** Deterministic protocols for the asynchronous single-writer
    multi-reader shared-memory model [M^rw] (Section 5.1).

    A protocol describes one process's behaviour over {e local phases}: at
    most one write into its own register followed by a scan (the paper's
    maximal sequence of reads of distinct variables, which the synchronic
    layering always schedules after the relevant writes, so an atomic scan
    is equivalent).  [step] consumes the scanned register contents.

    [write] and [step] must be pure and deterministic: the engine calls
    each at most once per distinct input within a layer (a scan once per
    process and register vector) and shares the result across that
    layer's successors. *)

open Layered_core

module type S = sig
  type local

  type reg
  (** contents of a single-writer register *)

  val name : string
  val init : n:int -> pid:Pid.t -> input:Value.t -> local

  (** Value to write into own register at the start of a phase ([None] =
      skip the write). *)
  val write : n:int -> pid:Pid.t -> local -> reg option

  (** Transition on the scanned registers; [reads.(j - 1)] is register
      [V_j]'s content ([None] = never written). *)
  val step : n:int -> pid:Pid.t -> local -> reads:reg option array -> local

  val decision : local -> Value.t option
  val key : local -> string
  val reg_key : reg -> string
  val pp : Format.formatter -> local -> unit
end
