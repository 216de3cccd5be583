(** Parametric bivalent-chain construction with the adversary's strategy
    rendered per round — the Theorem 4.2 construction as a CLI-visible
    artifact, for any substrate. *)

type line = {
  round : int;
  action : string;  (** the environment action chosen at this layer *)
  decided : string;  (** the set of decided values at the state *)
  violation : bool;  (** at least two distinct values decided *)
}

type t = {
  model : string;
  n : int;
  horizon : int;  (** the driving protocol's decision deadline *)
  complete : bool;  (** the chain reached the requested length *)
  lines : line list;
}

(** [run ~model ~n ~t ~length] builds the chain in the layering of the
    {!Models} row named [model] (what [t] means is stated once, in
    {!Models}), from the first bivalent initial state.  Where the row
    caps chains ({!Models.t.chain_cap}: ["sync"], the Lemma 6.1 chain,
    bivalence dying at round t-1) the length is capped; elsewhere it is
    the ever-bivalent Theorem 4.2 chain.  Raises [Invalid_argument] on an
    unknown model name. *)
val run : model:string -> n:int -> t:int -> length:int -> t

val pp : Format.formatter -> t -> unit
