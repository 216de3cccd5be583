(** The iterated immediate-snapshot (IIS) model and its canonical
    layering: one layer per {e ordered partition} of the processes.

    Round [r] uses a fresh one-shot memory: every process writes (value
    fixed at round start) and snapshots.  The environment schedules the
    round as an ordered partition [B1, ..., Bm] of [{1..n}]: a process in
    block [Bk] sees exactly the writes of [B1 U ... U Bk].  Since each
    memory is one-shot and fully resolved within its round, the global
    state is just the vector of local states — the environment carries
    nothing across rounds, which is what makes this the simplest substrate
    of the family.

    The number of layers per state is the Fubini (ordered-Bell) number:
    3, 13, 75 for n = 2, 3, 4.

    The model is wait-free-flavoured (every process moves every round);
    the paper's connectivity machinery applies verbatim: each layer is
    similarity connected (adjacent-block merges and splits differ in the
    view of a single process), hence valence connected, hence consensus is
    unsolvable — experiment E13. *)

open Layered_core

(** An ordered partition: pairwise-disjoint non-empty blocks covering
    [{1..n}], earlier blocks snapshot-before later ones. *)
type partition = Pid.t list list

(** All ordered partitions of [{1..n}] (Fubini-number many). *)
val partitions : n:int -> partition list

(** Number of ordered partitions (for sanity checks and sizing). *)
val fubini : int -> int

module Make (P : Protocol.S) : sig
  type state = private {
    round : int;
    locals : P.local array;
    interned : Intern.slot;  (** memo cell for the state's {!Intern.meta} *)
  }

  val n_of : state -> int
  val initial : inputs:Value.t array -> state
  val initial_states : n:int -> values:Value.t list -> state list

  (** Execute one IIS round under the given ordered partition (validated:
      blocks non-empty, disjoint, covering). *)
  val apply : state -> partition -> state

  (** The layering: de-duplicated [apply x] over all ordered
      partitions, in {!partitions} order, built by the layer kernel
      ({!Engine_core.layer}).  The partitions are validated and compiled
      once per [n], each into every process's view set; at a state each
      [P.write] runs at most once per process and each [P.step] once
      per (process, view set), and only a partition whose processes end
      with a new combination of local states builds its successor.
      Nothing is interned. *)
  val layer : state -> state list

  (** [List.length (layer x)], counted without building a successor. *)
  val layer_size : state -> int

  (** Identity, similarity and valence wiring ({!Engine_core}).  The
      environment carries nothing across rounds, so a process's
      component is just its local key; no process ever fails, so
      similarity needs no witness; and [canon] is sound to quotient by
      whenever the protocol's local keys are pid-free. *)
  include Engine_core.S with type state := state

  val pp : Format.formatter -> state -> unit
end

(** Render an ordered partition, e.g. ["{1}{2,3}"]. *)
val pp_partition : Format.formatter -> partition -> unit
