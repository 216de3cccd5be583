module Stats = Layered_runtime.Stats

(* The key cell stays [None] until the key is first demanded; a CAS
   publishes the first render, so racing domains all return one string. *)
type key_cell = string option Atomic.t
type meta = { id : int; parts : int array; rendered : key_cell }

(* The slot caches the meta *together with a physical token of the table
   that produced it*.  Metas are only trusted when the token is
   physically the live table's own: a state revived by [Marshal] (the
   checkpoint/resume path) carries a *copy* of the token, so its cached
   meta — whose [id]/[parts] are relative to a dead table — is discarded
   and the state is re-interned into the live table. *)
type token = unit ref
type slot = (meta * token) option Atomic.t

let fresh_slot () = Atomic.make None

(* [Hashtbl.hash] stops after 10 meaningful values — fewer than one
   n >= 4 state holds — so both probes hash deeper. *)
let deep_hash v = Hashtbl.hash_param 64 256 v

(* The arena: dense part-id vector -> meta.  It is the canonical
   identity and assigns the ids; the structural table only caches it. *)
module Arena = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash = deep_hash
end)

(* [find]/[remember] close over the structural table, whose key type is
   the engine's view; callers hold [lock]. *)
type 'a t = {
  key : 'a -> string;
  parts : 'a -> string array;
  find : 'a -> meta option;
  remember : 'a -> meta -> unit;
  token : token;
  lock : Mutex.t;
  pool : (string, int) Hashtbl.t;  (* part string -> dense part id *)
  arena : meta Arena.t;
}

let create (type v) ?(size = 1024) ~(view : 'a -> v) ~key ~parts () =
  let module Structural = Hashtbl.Make (struct
    type t = v

    (* [compare] short-cuts physically shared substructure; [( = )] does not *)
    let equal a b = compare a b = 0
    let hash = deep_hash
  end) in
  let structural = Structural.create size in
  {
    key;
    parts;
    find = (fun x -> Structural.find_opt structural (view x));
    remember = (fun x m -> Structural.replace structural (view x) m);
    token = ref ();
    lock = Mutex.create ();
    pool = Hashtbl.create (4 * size);
    arena = Arena.create size;
  }

let part_id t s =
  match Hashtbl.find_opt t.pool s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.pool in
      Hashtbl.add t.pool s i;
      i

(* The shared miss path, under [lock]: map part strings through the
   pool and find or add the id vector in the arena — the canonical
   fallback that gives structurally different, key-equal states one
   meta. *)
let arena_find_or_add t sparts =
  let ids = Array.map (part_id t) sparts in
  match Arena.find_opt t.arena ids with
  | Some m -> (m, false)
  | None ->
      let id = Arena.length t.arena in
      let m = { id; parts = ids; rendered = Atomic.make None } in
      Arena.add t.arena ids m;
      (m, true)

(* Hit: one structural probe, nothing rendered.  Miss: render the parts
   outside the lock (protocol code), then take the shared miss path. *)
let intern t x =
  match Mutex.protect t.lock (fun () -> t.find x) with
  | Some m ->
      Stats.record_intern ~fresh:false;
      m
  | None ->
      let sparts = t.parts x in
      let m, fresh =
        Mutex.protect t.lock (fun () ->
            let found = arena_find_or_add t sparts in
            t.remember x (fst found);
            found)
      in
      Stats.record_intern ~fresh;
      m

let adopt t sparts =
  (fst (Mutex.protect t.lock (fun () -> arena_find_or_add t sparts))).id

let parts_of_id t =
  let strings, vectors =
    Mutex.protect t.lock (fun () ->
        let strings = Array.make (Hashtbl.length t.pool) "" in
        Hashtbl.iter (fun s i -> strings.(i) <- s) t.pool;
        let vectors = Array.make (Arena.length t.arena) [||] in
        Arena.iter (fun _ m -> vectors.(m.id) <- m.parts) t.arena;
        (strings, vectors))
  in
  (* one string per part id, so equal parts stay physically shared *)
  fun id -> Array.map (fun i -> strings.(i)) vectors.(id)

let memo t slot x =
  match Atomic.get slot with
  | Some (m, tok) when tok == t.token -> m
  | Some _ | None ->
      let m = intern t x in
      (* Racing domains may both intern, but the mutex-guarded arena
         hands both the same meta, so the slot converges regardless of
         write order. *)
      Atomic.set slot (Some (m, t.token));
      m

let key t m x =
  match Atomic.get m.rendered with
  | Some k -> k
  | None ->
      (* a racing domain may publish first; everyone returns its string *)
      ignore (Atomic.compare_and_set m.rendered None (Some (t.key x)));
      Option.get (Atomic.get m.rendered)

type canon = { ckey : string; witness : Canon.witness; weight : int }

let canon t ~roles x =
  let sparts = t.parts x in
  let cparts, witness = Canon.sort ~roles sparts in
  { ckey = Canon.render cparts; witness; weight = Canon.weight ~roles sparts }

let part_ids t x =
  let sparts = t.parts x in
  Mutex.protect t.lock (fun () -> Array.map (part_id t) sparts)

let size t = Mutex.protect t.lock (fun () -> Arena.length t.arena)
