(** Uniform result rows for the experiments of EXPERIMENTS.md.

    The paper has no tables or figures; each numbered claim becomes an
    experiment emitting rows of the shape "paper says X — we measured Y".
    The same rows back the CLI output, the test assertions and the
    markdown in EXPERIMENTS.md. *)

type status =
  | Pass  (** the machine-checked instances agree with the paper's claim *)
  | Fail  (** a counterexample was found *)
  | Info  (** a measurement with no pass/fail semantics *)

type row = {
  id : string;  (** experiment id, e.g. ["E7"] *)
  claim : string;  (** the paper result being exercised, e.g. ["Cor 6.3"] *)
  params : string;  (** instance parameters, e.g. ["n=4 t=2"] *)
  expected : string;  (** what the paper asserts *)
  measured : string;  (** what the run found *)
  status : status;
}

val row :
  id:string ->
  claim:string ->
  params:string ->
  expected:string ->
  measured:string ->
  status ->
  row

(** [check ... bool] maps [true]/[false] to [Pass]/[Fail]. *)
val check :
  id:string -> claim:string -> params:string -> expected:string -> measured:string -> bool -> row

val all_pass : row list -> bool

(** Aligned plain-text table. *)
val pp_table : Format.formatter -> row list -> unit

(** GitHub-flavoured markdown table, for EXPERIMENTS.md. *)
val to_markdown : row list -> string
