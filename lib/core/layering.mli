(** Layerings and the bivalent-chain construction (Section 4).

    A successor function [S : G -> 2^G \ {0}] generates the system [R_S] of
    S-runs.  [S] is a {e layering} of a system [R] when every S-run starting
    at an initial state of [R] embeds into a run of [R] via a monotone time
    mapping — i.e. each layer is a legal (multi-)step of the original model.

    The central construction (Lemma 4.1 iterated, as in Theorem 4.2): from a
    bivalent state, if every layer [S(x)] is valence connected then some
    successor is again bivalent, so a run can be kept bivalent forever —
    consensus never terminates in [R_S], hence not in [R]. *)

type 'a successor = 'a -> 'a list

(** [validate ~micro ~ident ~states succ] checks the layering property
    against a micro-step relation of the original model: every [succ]
    successor of every state in [states] must be reachable from it by at
    most [bound] micro-steps (default 8), by a
    {!Layered_runtime.Frontier} traversal on {!Layered_runtime.Pool.serial}
    that identifies states by [ident] (canonical: equal ids iff equal
    states — an engine's [E.ident], or [Fun.id] for int states).
    Returns the list of violating [(state, successor)] pairs (empty =
    valid). *)
val validate :
  micro:'a successor ->
  ident:('a -> int) ->
  ?bound:int ->
  states:'a list ->
  'a successor ->
  ('a * 'a) list

(** Result of attempting to extend a bivalent chain. *)
type 'a chain = {
  states : 'a list;  (** the constructed chain, [x0; x1; ...], all bivalent *)
  complete : bool;  (** reached the requested length *)
  stuck : 'a option;  (** last state whose layer had no bivalent successor *)
}

(** [bivalent_chain ~classify ~succ ~length x0] greedily extends a chain of
    bivalent states starting from [x0] (which must itself classify as
    bivalent) by picking, in each layer, the first bivalent successor.
    If [x0] is not bivalent the chain is empty and [stuck = Some x0]. *)
val bivalent_chain :
  classify:('a -> Valence.verdict) -> succ:'a successor -> length:int -> 'a -> 'a chain

(** [find_bivalent ~classify states] is the first bivalent state of
    [states], if any — typically applied to the initial states, per
    Lemma 3.6. *)
val find_bivalent : classify:('a -> Valence.verdict) -> 'a list -> 'a option

(** A labelled chain records the environment action chosen at each layer —
    the adversary's strategy, exhibitable to a user. *)
type ('l, 'a) labelled_chain = {
  start : 'a;
  steps : ('l * 'a) list;  (** action taken and resulting (bivalent) state *)
  complete_l : bool;
}

(** [bivalent_chain_labelled ~classify ~succ ~length x0] is
    {!bivalent_chain} over a successor function that names its successors
    (e.g. with the environment action producing them); picks the first
    bivalent successor each layer. [length] counts states including
    [x0]. *)
val bivalent_chain_labelled :
  classify:('a -> Valence.verdict) ->
  succ:('a -> ('l * 'a) list) ->
  length:int ->
  'a ->
  ('l, 'a) labelled_chain
