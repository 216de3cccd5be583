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

  (* Nothing between a [lock] and its [unlock] can raise, and a probe
     allocates nothing: [mem] then [find] on a hit, [add] on a miss. *)
  let memo_layer layer =
    let table = Hashtbl.create 256 and lock = Mutex.create () in
    fun x ->
      let id = ident x in
      Mutex.lock lock;
      let hit = Hashtbl.mem table id in
      let ys = if hit then Hashtbl.find table id else [] in
      Mutex.unlock lock;
      if hit then ys
      else begin
        let ys = layer x in
        Mutex.lock lock;
        if not (Hashtbl.mem table id) then Hashtbl.add table id ys;
        let first = Hashtbl.find table id in
        Mutex.unlock lock;
        first
      end

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
    order, and nothing is interned.

    Allocation: at a state the kernel makes a fixed set of scratch
    values (labels' classes and classes' values in flat arrays, a class
    vector, a byte per row, the table of vectors seen), then per new row
    a copy of its vector, the table's entry, the array of its values
    handed to the successor, and a list cell.  A label or
    a repeated row allocates nothing in the kernel; a label's value, and
    what a step reads and makes, is the engine's cost. *)

(** The distinct [values] of a sequence, first occurrence first, and
    each element's position among them ([index]). *)
type 'a column = { values : 'a array; index : int array }

(** A layering's rows: one column per process (index [i - 1] for
    process [i]) and the environment's, both of labels; [offset.(c)] is
    where column [c]'s labels start when every process's labels are
    numbered in one sequence, [offset.(n)] their count. *)
type ('p, 'e) rows = { procs : 'p column array; env : 'e column; offset : int array }

(* Classes of values in flat arrays: [classes.(base + k)] is label [k]'s
   class in the column starting at [base], and [reps.(base + j)] class
   [j]'s value ([reps] is made when the first value is). *)
type 'a classed = { classes : int array; mutable reps : 'a array }

(* [classify f c labels s base] classes [f c] on each of [labels] under
   [compare], by a linear search of the column's classes so far (a
   column has few), and returns the number of classes. *)
let classify f c labels s base =
  let count = ref 0 in
  for k = 0 to Array.length labels - 1 do
    let v = f c labels.(k) in
    let j = ref 0 in
    while !j < !count && compare s.reps.(base + !j) v <> 0 do
      incr j
    done;
    if !j = !count then begin
      if Array.length s.reps = 0 then s.reps <- Array.make (Array.length s.classes) v
      else s.reps.(base + !j) <- v;
      incr count
    end;
    s.classes.(base + k) <- !j
  done;
  !count

(** [rows ~n labelled] compiles one row per element of [labelled], in
    order: each process's label (index [i - 1] for process [i]) and the
    environment's. *)
let rows ~n labelled =
  let labelled = Array.of_list labelled in
  let column f =
    let s = { classes = Array.make (Array.length labelled) 0; reps = [||] } in
    let count = classify (fun _ l -> f l) 0 labelled s 0 in
    { values = Array.sub s.reps 0 count; index = s.classes }
  in
  let procs = Array.init n (fun c -> column (fun (ps, _) -> ps.(c))) in
  let offset = Array.make (n + 1) 0 in
  Array.iteri (fun c p -> offset.(c + 1) <- offset.(c) + Array.length p.values) procs;
  { procs; env = column snd; offset }

(* [scan rows ~local ~env] is a state's classes of process and
   environment labels, [fresh] with byte [r] set on each of the [size]
   rows whose class vector no earlier row has, and [size]. *)
let scan rows ~local ~env =
  let n = Array.length rows.procs and count = Array.length rows.env.index in
  let locals = { classes = Array.make rows.offset.(n) 0; reps = [||] }
  and envs = { classes = Array.make (Array.length rows.env.values) 0; reps = [||] } in
  for c = 0 to n - 1 do
    ignore (classify local c rows.procs.(c).values locals rows.offset.(c))
  done;
  ignore (classify (fun _ e -> env e) 0 rows.env.values envs 0);
  let seen = Hashtbl.create 16 and key = Array.make (n + 1) 0 in
  let fresh = Bytes.make count '\000' and size = ref 0 in
  for r = 0 to count - 1 do
    for c = 0 to n - 1 do
      key.(c) <- locals.classes.(rows.offset.(c) + rows.procs.(c).index.(r))
    done;
    key.(n) <- envs.classes.(rows.env.index.(r));
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen (Array.copy key) ();
      Bytes.set fresh r '\001';
      incr size
    end
  done;
  (locals, envs, fresh, !size)

(** [layer rows ~local ~env ~build] is the successors of the rows with
    distinct class vectors, in row order.  [local c p] is process
    [c + 1]'s local value under label [p] and [env e] the environment
    left under label [e], each computed once per label and classed under
    [compare].  [build row v] builds a row's successor from [row.(c)],
    process [c + 1]'s value, and [v], its environment; [row] is the
    successor's to keep.  The rows are built last to first. *)
let layer rows ~local ~env ~build =
  let locals, envs, fresh, _ = scan rows ~local ~env in
  let out = ref [] in
  for r = Bytes.length fresh - 1 downto 0 do
    if Bytes.get fresh r <> '\000' then begin
      let row = Array.make (Array.length rows.procs) locals.reps.(0) in
      for c = 0 to Array.length row - 1 do
        let base = rows.offset.(c) in
        row.(c) <- locals.reps.(base + locals.classes.(base + rows.procs.(c).index.(r)))
      done;
      out := build row envs.reps.(envs.classes.(rows.env.index.(r))) :: !out
    end
  done;
  !out

(** [layer_size rows ~local ~env] is [List.length (layer rows ~local
    ~env ~build)], counted without building a successor. *)
let layer_size rows ~local ~env =
  let _, _, _, size = scan rows ~local ~env in
  size

(** [memo ~n g] is [g] on pairs of a process index below [n] and an
    [int] key (the processes read, a register vector, a missed sender),
    each value computed on first use ({!find}).  A process's keys so far
    are searched linearly (it has few) in its slice of two flat arrays,
    which double when a slice is full; no value is boxed. *)
type 'a memo = {
  g : int -> int -> 'a;
  counts : int array;
  mutable width : int;
  mutable keys : int array;
  mutable found : 'a array;
}

let memo ~n g = { g; counts = Array.make n 0; width = 0; keys = [||]; found = [||] }

let grow m v =
  let n = Array.length m.counts in
  let width = max n (2 * m.width) in
  let keys = Array.make (n * width) 0 and found = Array.make (n * width) v in
  for i = 0 to n - 1 do
    for k = 0 to m.counts.(i) - 1 do
      keys.((i * width) + k) <- m.keys.((i * m.width) + k);
      found.((i * width) + k) <- m.found.((i * m.width) + k)
    done
  done;
  m.width <- width;
  m.keys <- keys;
  m.found <- found

let find m i key =
  let count = m.counts.(i) in
  let k = ref 0 in
  while !k < count && m.keys.((i * m.width) + !k) <> key do
    incr k
  done;
  if !k < count then m.found.((i * m.width) + !k)
  else begin
    let v = m.g i key in
    if count = m.width then grow m v;
    m.keys.((i * m.width) + count) <- key;
    m.found.((i * m.width) + count) <- v;
    m.counts.(i) <- count + 1;
    v
  end

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
