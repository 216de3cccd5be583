(** Graphviz (DOT) export of the structures the analysis computes, for
    inspection with [dot -Tsvg].  Backs the CLI [graph] command. *)

(** [dot_of_rel ~name ~label ~rel states] renders the undirected graph
    [(states, rel)]; nodes carry [label]. *)
val dot_of_rel :
  name:string -> label:('a -> string) -> rel:('a -> 'a -> bool) -> 'a list -> string

(** Similarity graph of [Con_0] in the t-resilient synchronous model. *)
val con0_similarity : n:int -> t:int -> string

(** Similarity graph of one [S^t] layer at a bivalent initial state, with
    valence verdicts in the labels. *)
val st_layer : n:int -> t:int -> string

(** The task names {!task_thickness} knows: ["consensus"], ["election"],
    ["weak-consensus"], ["identity"], ["kset2"]. *)
val task_names : string list

(** The 1-thickness graph of [C_Delta(I)] for a named task over the full
    input set.  Raises [Invalid_argument] on a name not in
    {!task_names}. *)
val task_thickness : name:string -> n:int -> string
