(** Coverings and generalized valence (Section 7).

    A pair of n-size complexes [(O0, O1)] is a covering of a set of runs
    when every decided output simplex lies in one of the two complexes and
    each complex contains at least one decided output simplex.  Generalized
    valence replaces "decides v" with "the run's decided output simplex
    lies in [Ov]"; all the connectivity machinery then lifts verbatim
    (Lemma 7.1). *)

open Layered_core

type t = {
  label : string;
  mem0 : Simplex.t -> bool;
  mem1 : Simplex.t -> bool;
}

val of_complexes : ?label:string -> Complex.t -> Complex.t -> t

(** [valence_spec cover ~output spec] is [spec] with covering membership
    as the decision observation: a terminal state witnesses [0] when its
    [output] simplex (the decisions of its non-failed processes) lies in
    [O0] and [1] when it lies in [O1]; a non-terminal state witnesses
    nothing.  Run it through {!Layered_core.Valence} as usual: [vals]
    is then the set of covering sides reachable in a future. *)
val valence_spec :
  t -> output:('a -> Simplex.t) -> 'a Valence.spec -> 'a Valence.spec

(** [is_covering cover outputs] checks the two covering conditions against
    a finite set of decided output simplexes. *)
val is_covering : t -> Simplex.t list -> bool
