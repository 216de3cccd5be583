(** The model table: one row per substrate the analyses know by name.

    Gafni and Losa ("Time is not a Healer") treat each model as a
    message adversary, a set of allowed per-round communication
    patterns.  A row is that view made concrete: a protocol, the engine
    it runs on and the layering the adversary chooses from, plus the
    facts about the pair that the generic analyses ({!Sweep},
    {!Valence_query}, {!Chains}, experiment E2 and the [simgraph-eq/*]
    oracles) need.  Those analyses look a row up by name and run one
    body over it; a new model is one new row.

    {b What [t] means.}  In every row the protocol decides by its round
    (phase, in ["sm"]) [t + 1].  Only in ["sync"] is [t] also a failure
    bound: [S^t] crashes at most [t] processes.  ["mobile"]'s [S_1] has
    one mobile omitter in every round whatever [t] is, and the
    asynchronous rows (["sm"], ["mp"], ["smp"], ["iis"]) let one process
    be slow or absent in every layer, with no bound over the run.

    The rows, in order:
    - ["mobile"]: FloodSet under [S_1] (Section 5, model [M^mf]);
    - ["sync"]: FloodSet under [S^t], the t-resilient crash model
      (Section 6);
    - ["sm"]: the voting protocol under [S^rw], asynchronous shared
      memory (Section 5.1);
    - ["mp"]: flooding under [S^per], asynchronous message passing
      (Section 5.1);
    - ["smp"]: FloodSet under the synchronic message-passing layering;
    - ["iis"]: the voting protocol under all ordered partitions, the
      iterated immediate-snapshot model. *)

open Layered_core

(** What a row's engine constructor returns. *)
module type ENGINE = sig
  (** Identity, similarity and valence wiring ({!Engine_core}). *)
  include Engine_core.S

  val initial : inputs:Value.t array -> state

  (** [Con_0]: one initial state per assignment of [values]. *)
  val initial_states : n:int -> values:Value.t list -> state list

  (** The row's layering: the de-duplicated successors of a state, in
      action order, built by the layer kernel ({!Engine_core.layer});
      it interns nothing. *)
  val layer : state -> state list

  (** [List.length (layer x)], counted without building a successor:
      what {!Sweep} reports for its last level. *)
  val layer_size : state -> int

  (** One successor per action of the layering, not de-duplicated, each
      labelled with its action as {!Chains} prints it. *)
  val steps : state -> (string * state) list

  (** Completed rounds (phases, in ["sm"]). *)
  val round : state -> int
end

type t = {
  name : string;
  renaming_closed : bool;
      (** The declared adversary property behind [Sweep.run ~symmetry]:
          under every role-respecting renaming of processes, with states
          compared by their part strings, the reachable set maps onto
          itself and the layering commutes with the renaming.  Only then
          is the reachable set a union of full orbits, so that one
          representative per orbit, weighted by its orbit size, gives
          the unreduced counts.  The test suite checks the declaration
          against every row.  True for ["iis"] only: the sync layerings
          block receiver prefixes [{1..k}], and the other rows carry pids
          in their parts. *)
  engine : t:int -> (module ENGINE);
      (** Applies the protocol and engine functors afresh on every call,
          so each caller has its own identity table. *)
  valence_depth : t:int -> int;
      (** A valence depth by which every branch has decided: [t + 2],
          and [t + 3] in ["smp"]. *)
  chain_cap : t:int -> int option;
      (** The most states a bivalent chain can have, where the model
          bounds it: [t] in ["sync"], where bivalence survives only
          through round [t - 1] (Lemma 6.1). *)
}

(** The six rows, in the order above. *)
val all : t list

(** The rows' names, in order. *)
val names : string list

val find : string -> t option

(** [get ~caller name] is the row named [name].  Raises
    [Invalid_argument "<caller>: unknown model \"<name>\""] when there is
    none. *)
val get : caller:string -> string -> t
