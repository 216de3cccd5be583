(** The model-independent layer shared by every substrate engine.

    The paper states similarity (Definition 3.1) and valence once, over
    any model's global states: a model contributes only its states, its
    layering and its failure record.  {!MODEL} is that contribution (minus
    the layering, which stays with the engine); {!Make} derives state
    identity, the similarity relation and graph, the symmetry canon and
    the valence spec from it, so each engine keeps only model-specific
    code. *)

(** What one substrate supplies. *)
module type MODEL = sig
  type state
  type local

  (** The state's memo cell for its {!Intern.meta}. *)
  val slot : state -> Intern.slot

  (** Structural identity: every field [key] reads, never the slot.  It
      is the state's identity ({!Intern.create}), so it must be
      canonical: equal views ⟺ equal keys. *)
  type view

  val view : state -> view

  (** Canonical encoding, injective on states. *)
  val key : state -> string

  (** Header at index [0] (round plus environment data compared
      unmasked), then one component per process: two states agree modulo
      [j] exactly when their parts agree everywhere except index [j]. *)
  val parts : state -> string array

  (** Index [i - 1] holds process [i]'s local state. *)
  val locals : state -> local array

  val decision : local -> Value.t option

  (** The environment's failure record, index [i - 1] for process [i].
      [None] when the model displays no finite failure: every process's
      decision then witnesses valence, and Definition 3.1's "some other
      process non-failed in both" side condition holds automatically
      (n >= 2). *)
  val failed : (state -> bool array) option
end

(** What {!Make} derives. *)
module type S = sig
  type state

  (** Canonical encoding, rendered once per distinct state on demand. *)
  val key : state -> string

  (** Dense {!Intern} id: equal keys have equal ids, so [equal] and
      memo-table probes are O(1), and computing it renders no key. *)
  val ident : state -> int

  (** The engine's identity table (tests probe it through
      {!Intern.memo}, {!Intern.parts} and {!Intern.part_ids}). *)
  val intern_table : state Intern.t

  val equal : state -> state -> bool

  (** [states] without repeated identities, first occurrence kept. *)
  val dedup : state list -> state list

  (** [memo_layer layer] is [layer] computed once per state identity
      ({!ident}): a later call on a state of that identity returns the
      first call's list and runs nothing.  Each call of [memo_layer]
      makes one table, so a memo belongs to one layering, and two
      layerings of one engine (the sync engine's [s1] and [s_multi])
      are wrapped separately.  The table is domain-safe: successors are
      computed outside its lock and the first list published wins.  A
      layering that raises caches nothing, so the next call raises
      again.  The table keeps every expanded state's successors for as
      long as the returned function lives: wrap a layering only where
      one consumer expands a state more than once (a valence walk beside
      layer checks, or at a second depth), never a traversal that
      expands each state once, such as [Sweep]. *)
  val memo_layer : (state -> state list) -> state -> state list

  val decisions : state -> Value.t option array

  (** Values decided by processes non-failed at the state. *)
  val decided_vset : state -> Vset.t

  (** Every non-failed process has decided. *)
  val terminal : state -> bool

  (** [agree_modulo x y j]: headers equal and the components of every
      process [i <> j] equal (masked part-id equality).  What a component
      holds is the model's choice: the local state, plus the failure bit
      where failures are recorded, plus the mailbox in asynchronous
      message passing. *)
  val agree_modulo : state -> state -> Pid.t -> bool

  (** Similarity [x ~s y] (Definition 3.1): [agree_modulo] for some [j]
      with some process other than [j] non-failed in both states. *)
  val similar : state -> state -> bool

  (** The similarity graph over [states]: node array (input order) plus
      adjacency under {!similar}, built by {!Simgraph.bucketed} through
      one persistent scratch instance. *)
  val similarity_graph : state list -> state array * Graph.t

  (** Orbit representative of the state under role-respecting process
      renamings ({!Intern.canon}).  Sound to quotient a traversal by only
      when the model's parts are process-id-free and its action set is
      renaming-closed: the IIS substrate.  The shared-memory, mailbox and
      synchronic message-passing substrates carry pids in their parts
      (registers, mail, transit packets), so there it is exposed for
      uniformity and testing only. *)
  val canon : roles:int array -> state -> Intern.canon

  (** The valence spec of [succ]: memo keyed by {!ident}, valence
      witnessed by {!decided_vset}, exploration stopping at {!terminal}. *)
  val valence_spec : succ:(state -> state list) -> state Valence.spec

  (** [export_memo v] is [v]'s memo with each identity replaced by the
      state's part strings, which, unlike ids, mean the same in another
      process.  Sorted by parts, so the bytes do not depend on interning
      order. *)
  val export_memo :
    state Valence.t -> (string array * (int * Valence.outcome)) list

  (** [import_memo v entries] adopts each entry's parts into the
      identity table ({!Intern.adopt}) and loads the entries into [v]'s
      memo: a state interned later with those parts finds its outcome. *)
  val import_memo :
    state Valence.t -> (string array * (int * Valence.outcome)) list -> unit
end

module Make (M : MODEL) : S with type state = M.state = struct
  type state = M.state

  let intern_table = Intern.create ~view:M.view ~key:M.key ~parts:M.parts ()
  let meta x = Intern.memo intern_table (M.slot x) x
  let key x = Intern.key intern_table (meta x) x
  let ident x = (meta x).Intern.id
  let equal x y = ident x = ident y
  let parts x = Intern.parts intern_table (meta x) x

  let dedup states =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun x ->
        let k = ident x in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      states

  let memo_layer layer =
    let table = Hashtbl.create 256 and lock = Mutex.create () in
    fun x ->
      let id = ident x in
      match Mutex.protect lock (fun () -> Hashtbl.find_opt table id) with
      | Some ys -> ys
      | None ->
          let ys = layer x in
          Mutex.protect lock (fun () ->
              match Hashtbl.find_opt table id with
              | Some first -> first
              | None ->
                  Hashtbl.add table id ys;
                  ys)

  let decisions x = Array.map M.decision (M.locals x)

  (* [decided_vset] and [terminal] run on every valence node, the witness
     on every bucketed similarity candidate: pick the failure-free or the
     failure-aware form once, here, rather than testing [M.failed] per
     call.  The loops allocate nothing. *)
  let decided_vset, terminal, witness =
    match M.failed with
    | None ->
        ( (fun x ->
            let locals = M.locals x and s = ref Vset.empty in
            for i = 0 to Array.length locals - 1 do
              match M.decision locals.(i) with Some v -> s := Vset.add v !s | None -> ()
            done;
            !s),
          (fun x ->
            let locals = M.locals x and ok = ref true in
            for i = 0 to Array.length locals - 1 do
              match M.decision locals.(i) with Some _ -> () | None -> ok := false
            done;
            !ok),
          fun _ _ _ -> true )
    | Some failed ->
        ( (fun x ->
            let f = failed x and locals = M.locals x and s = ref Vset.empty in
            for i = 0 to Array.length locals - 1 do
              if not f.(i) then
                match M.decision locals.(i) with Some v -> s := Vset.add v !s | None -> ()
            done;
            !s),
          (fun x ->
            let f = failed x and locals = M.locals x and ok = ref true in
            for i = 0 to Array.length locals - 1 do
              if not f.(i) then
                match M.decision locals.(i) with Some _ -> () | None -> ok := false
            done;
            !ok),
          (* Definition 3.1's side condition: some process other than the
             masked [j] is non-failed in both states. *)
          fun x y j ->
            let fx = failed x and fy = failed y and found = ref false in
            for i = 0 to Array.length fx - 1 do
              if i + 1 <> j && (not fx.(i)) && not fy.(i) then found := true
            done;
            !found )

  let agree_modulo x y j = Simgraph.masked_equal (parts x) (parts y) j

  let similar x y =
    let p = parts x and q = parts y in
    let found = ref false in
    if Array.length p = Array.length q then
      for j = 1 to Array.length p - 1 do
        if (not !found) && Simgraph.masked_equal p q j && witness x y j then found := true
      done;
    !found

  let sim_inc = Simgraph.Incremental.create { Simgraph.parts; witness }
  let similarity_graph states = Simgraph.Incremental.build sim_inc states
  let canon ~roles x = Intern.canon intern_table ~roles x
  let valence_spec ~succ = { Valence.succ; ident; decided = decided_vset; terminal }

  let export_memo v =
    let parts_of = Intern.parts_of_id intern_table in
    List.map (fun (id, e) -> (parts_of id, e)) (Valence.export v)
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let import_memo v entries =
    Valence.import v (List.map (fun (p, e) -> (Intern.adopt intern_table p, e)) entries)
end

(** [per_key build] is [build] memoised by an [int] key: the rows every
    state of one process count shares, and the synchronous adversaries'
    rows per failure set.  Entries are published atomically, so pooled
    workers may race to build one but all use the one published.
    ([assq] compares the [int] keys by value.) *)
let per_key build =
  let table = Atomic.make [] in
  let rec publish (k : int) v =
    let seen = Atomic.get table in
    match List.assq k seen with
    | v -> v
    | exception Not_found ->
        if Atomic.compare_and_set table seen ((k, v) :: seen) then v else publish k v
  in
  fun k ->
    match List.assq k (Atomic.get table) with
    | v -> v
    | exception Not_found -> publish k (build k)

(** {1 The layer kernel}

    In every layering here a successor is fixed by what each process
    ends the layer with and by what the environment holds after it:
    one action differs from another only in what one slow, omitting,
    late or excluded process sees.  So a layering is compiled once per
    process count (and failure set, for the synchronous adversaries)
    into rows, one per action: a label per process (its inbox, view or
    scan mask) and an environment label (the registers, transit or
    failure set it leaves).  At a state, {!layer} computes each distinct
    label's value once and classes it under [compare]; a row whose
    vector of classes an earlier row had is skipped, and only the new
    rows are built.  Equal class vectors are equal views, so the list
    is the identity-deduplicated [apply x] over the actions, in action
    order.  A skipped row allocates nothing, and nothing is interned. *)

(** The distinct [values] of a sequence, first occurrence first, and
    each element's position among them ([index]). *)
type 'a column = { values : 'a array; index : int array }

(** A layering's rows: one column per process (index [i - 1] for
    process [i]) and the environment's, both of labels. *)
type ('p, 'e) rows = { procs : 'p column array; env : 'e column }

(* [column f xs] is [f] over [xs], each element classed under [compare]
   by a linear search of the classes so far: a column has few, and
   this allocates nothing but the two arrays. *)
let column f xs =
  let values = ref [||] and count = ref 0 in
  let index =
    Array.map
      (fun x ->
        let v = f x in
        let k = ref 0 in
        while !k < !count && compare !values.(!k) v <> 0 do
          incr k
        done;
        if !k = !count then begin
          if !count = 0 then values := Array.make (Array.length xs) v else !values.(!k) <- v;
          incr count
        end;
        !k)
      xs
  in
  { values = Array.sub !values 0 !count; index }

(** [rows ~n labelled] compiles one row per element of [labelled], in
    order: each process's label (index [i - 1] for process [i]) and the
    environment's. *)
let rows ~n labelled =
  let labelled = Array.of_list labelled in
  {
    procs = Array.init n (fun c -> column (fun (ps, _) -> ps.(c)) labelled);
    env = column snd labelled;
  }

(* [distinct rows ~local ~env emit] calls [emit get v] on each row whose
   vector of classes no earlier row has, in row order: [get c] is
   process [c + 1]'s value in that row and [v] its environment's.  A
   row's vector is written into one scratch array and copied only when
   it is new, so a repeated row allocates nothing. *)
let distinct rows ~local ~env emit =
  let n = Array.length rows.procs in
  (* each column's values at this state, and each label's class *)
  let procs = Array.mapi (fun c labels -> column (local c) labels.values) rows.procs
  and envs = column env rows.env.values in
  let seen = Hashtbl.create 16 and key = Array.make (n + 1) 0 in
  for r = 0 to Array.length rows.env.index - 1 do
    for c = 0 to n - 1 do
      key.(c) <- procs.(c).index.(rows.procs.(c).index.(r))
    done;
    key.(n) <- envs.index.(rows.env.index.(r));
    if not (Hashtbl.mem seen key) then begin
      let key = Array.copy key in
      Hashtbl.add seen key ();
      emit (fun c -> procs.(c).values.(key.(c))) envs.values.(key.(n))
    end
  done

(** [layer rows ~local ~env ~build] is the successors of the rows with
    distinct class vectors, in row order.  [local c p] is process
    [c + 1]'s local value under label [p] and [env e] the environment
    left under label [e], each computed once per label and classed under
    [compare].  [build get v] builds a row's successor from [get c],
    process [c + 1]'s value, and [v], its environment. *)
let layer rows ~local ~env ~build =
  let out = ref [] in
  distinct rows ~local ~env (fun get v -> out := build get v :: !out);
  List.rev !out

(** [layer_size rows ~local ~env] is [List.length (layer rows ~local
    ~env ~build)], counted without building a successor. *)
let layer_size rows ~local ~env =
  let size = ref 0 in
  distinct rows ~local ~env (fun _ _ -> incr size);
  !size

(** [memo size f] is [f] on [0 .. size - 1], each value computed on
    first use: a layer's sends, writes, register vectors and steps. *)
let memo size f =
  let cells = Array.make size None in
  fun i ->
    match cells.(i) with
    | Some v -> v
    | None ->
        let v = f i in
        cells.(i) <- Some v;
        v

(** [memo_masks n f] is [f] on pairs of a process index below [n] and a
    bitmask, each value computed on first use: a layer's steps, keyed by
    the set of processes whose data they read.  ([assq] compares the
    [int] keys by value.) *)
let memo_masks n f =
  let table = Array.make n [] in
  fun i (mask : int) ->
    match List.assq mask table.(i) with
    | v -> v
    | exception Not_found ->
        let v = f i mask in
        table.(i) <- (mask, v) :: table.(i);
        v

(** Refuses process counts whose pid sets do not fit an [int] bitmask. *)
let check_mask_width n =
  if n >= Sys.int_size then invalid_arg "Engine: too many processes for a bitmask"

(** [pp_locals pp decision] prints one line per process, its local state
    and, once it has decided, its decision — the body every engine's
    [pp] shares. *)
let pp_locals pp decision ppf locals =
  Array.iteri
    (fun idx l ->
      Format.fprintf ppf "  p%d: %a%s@," (idx + 1) pp l
        (match decision l with
        | Some v -> Printf.sprintf "  [decided %s]" (Value.to_string v)
        | None -> ""))
    locals
