module Stats = Layered_runtime.Stats

(* Both cells stay [None] until first demanded; a CAS publishes the first
   render, so racing domains all return one value. *)
type key_cell = string option Atomic.t
type parts_cell = int array option Atomic.t
type meta = { id : int; rendered : key_cell; pooled : parts_cell }

(* The slot caches the meta *together with a physical token of the table
   that produced it*.  Metas are only trusted when the token is
   physically the live table's own: a state revived by [Marshal] (the
   checkpoint/resume path) carries a *copy* of the token, so its cached
   meta — whose [id] is relative to a dead table — is discarded and the
   state is re-interned into the live table. *)
type token = unit ref
type slot = (meta * token) option Atomic.t

let fresh_slot () = Atomic.make None

(* [Hashtbl.hash] stops after 10 meaningful values — fewer than one
   n >= 4 state holds — so the view hash goes deeper. *)
let deep_hash v = Hashtbl.hash_param 64 256 v

(* A stripe's bucket chains.  Each entry keeps its view's hash, so a
   resize rehashes nothing, and the state itself, whose view a probe
   compares and from which parts render on demand. *)
type 'a chain =
  | Nil
  | Cons of { hash : int; state : 'a; meta : meta; mutable next : 'a chain }

type 'a stripe = { lock : Mutex.t; mutable buckets : 'a chain array; mutable count : int }

(* The low [stripe_bits] of a view's hash pick its stripe, the bits above
   them its bucket. *)
let stripe_bits = 6

(* The adopt-only arena: pooled part vector -> meta. *)
module Arena = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash = deep_hash
end)

type ('a, 'v) table = {
  view : 'a -> 'v;
  key : 'a -> string;
  parts : 'a -> string array;
  token : token;
  stripes : 'a stripe array;
  next : int Atomic.t;  (* the next fresh id *)
  pool_lock : Mutex.t;  (* guards [pool], [strings] and the arena's table *)
  pool : (string, int) Hashtbl.t;  (* part string -> dense part id *)
  mutable strings : string array;  (* dense part id -> part string *)
  arena : meta Arena.t option Atomic.t;  (* [None] until the first adopt *)
}

(* The view type is the engine's; the table hides it. *)
type 'a t = Table : ('a, 'v) table -> 'a t [@@unboxed]

let create ?(size = 1024) ~view ~key ~parts () =
  let buckets = max 8 (size lsr stripe_bits) in
  Table
    {
      view;
      key;
      parts;
      token = ref ();
      stripes =
        Array.init (1 lsl stripe_bits) (fun _ ->
            { lock = Mutex.create (); buckets = Array.make buckets Nil; count = 0 });
      next = Atomic.make 0;
      pool_lock = Mutex.create ();
      pool = Hashtbl.create size;
      strings = [||];
      arena = Atomic.make None;
    }

let fresh_meta t pooled =
  let id = Atomic.fetch_and_add t.next 1 in
  { id; rendered = Atomic.make None; pooled = Atomic.make pooled }

(* Under [pool_lock]. *)
let part_id t s =
  match Hashtbl.find_opt t.pool s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.pool in
      Hashtbl.add t.pool s i;
      if i = Array.length t.strings then
        t.strings <- Array.append t.strings (Array.make (max 16 i) "");
      t.strings.(i) <- s;
      i

let pool_parts t sparts = Mutex.protect t.pool_lock (fun () -> Array.map (part_id t) sparts)
let bucket s h = (h lsr stripe_bits) land (Array.length s.buckets - 1)

(* [compare] short-cuts physically shared substructure; [( = )] does not *)
let rec find view v h = function
  | Nil -> None
  | Cons c ->
      if c.hash = h && compare (view c.state) v = 0 then Some c.meta else find view v h c.next

let rec iter_chain f = function
  | Nil -> ()
  | Cons c ->
      f c.state c.meta;
      iter_chain f c.next

let grow s =
  let old = s.buckets in
  s.buckets <- Array.make (2 * Array.length old) Nil;
  let rec move = function
    | Nil -> ()
    | Cons c as cell ->
        let rest = c.next in
        let b = bucket s c.hash in
        c.next <- s.buckets.(b);
        s.buckets.(b) <- cell;
        move rest
  in
  Array.iter move old

(* The arena's meta for a part vector, or a fresh one it records. *)
let claim t arena sparts =
  Mutex.protect t.pool_lock (fun () ->
      let ids = Array.map (part_id t) sparts in
      match Arena.find_opt arena ids with
      | Some m -> (m, false)
      | None ->
          let m = fresh_meta t (Some ids) in
          Arena.add arena ids m;
          (m, true))

(* A structural miss: a fresh id, rendering nothing — unless the table
   has adopted spill entries, when the state's parts are rendered and an
   adopted vector equal to them is claimed. *)
let miss t x =
  match Atomic.get t.arena with
  | None -> (fresh_meta t None, true)
  | Some arena -> claim t arena (t.parts x)

(* Under the stripe's lock. *)
let find_or_add t s v h x =
  let b = bucket s h in
  match find t.view v h s.buckets.(b) with
  | Some m -> (m, false)
  | None ->
      let ((meta, _) as found) = miss t x in
      s.buckets.(b) <- Cons { hash = h; state = x; meta; next = s.buckets.(b) };
      s.count <- s.count + 1;
      if s.count > 2 * Array.length s.buckets then grow s;
      found

(* One find-or-add in the stripe the view's hash picks, the hash taken
   outside the lock. *)
let intern (Table t) x =
  let v = t.view x in
  let h = deep_hash v in
  let s = t.stripes.(h land ((1 lsl stripe_bits) - 1)) in
  Mutex.lock s.lock;
  match find_or_add t s v h x with
  | exception e ->
      Mutex.unlock s.lock;
      raise e
  | m, fresh ->
      Mutex.unlock s.lock;
      Stats.record_intern ~fresh;
      m

let memo (Table t as table) slot x =
  match Atomic.get slot with
  | Some (m, tok) when tok == t.token -> m
  | Some _ | None ->
      let m = intern table x in
      (* Racing domains may both intern, but one find-or-add in one
         stripe hands both the same meta, so the slot converges
         regardless of write order. *)
      Atomic.set slot (Some (m, t.token));
      m

let publish cell render =
  match Atomic.get cell with
  | Some v -> v
  | None ->
      (* a racing domain may publish first; everyone returns its value *)
      ignore (Atomic.compare_and_set cell None (Some (render ())));
      Option.get (Atomic.get cell)

let key (Table t) m x = publish m.rendered (fun () -> t.key x)
let pooled t m x = publish m.pooled (fun () -> pool_parts t (t.parts x))
let parts (Table t) m x = pooled t m x

type canon = { ckey : string; witness : Canon.witness; weight : int }

let canon (Table t) ~roles x =
  let sparts = t.parts x in
  let cparts, witness = Canon.sort ~roles sparts in
  { ckey = Canon.render cparts; witness; weight = Canon.weight ~roles sparts }

let part_ids (Table t) x = pool_parts t (t.parts x)

(* The first adopt takes every stripe, in order, so no probe runs while
   the arena indexes the states already held and is published. *)
let arena t =
  match Atomic.get t.arena with
  | Some a -> a
  | None ->
      Array.iter (fun s -> Mutex.lock s.lock) t.stripes;
      Fun.protect
        ~finally:(fun () -> Array.iter (fun s -> Mutex.unlock s.lock) t.stripes)
        (fun () ->
          match Atomic.get t.arena with
          | Some a -> a
          | None ->
              let a = Arena.create 64 in
              Array.iter
                (fun s ->
                  Array.iter
                    (iter_chain (fun x m -> Arena.replace a (pooled t m x) m))
                    s.buckets)
                t.stripes;
              Atomic.set t.arena (Some a);
              a)

let adopt (Table t) sparts = (fst (claim t (arena t) sparts)).id

let parts_of_id (Table t) =
  let size = Atomic.get t.next in
  let owners = Array.make size None in
  let own x m = if m.id < size then owners.(m.id) <- Some (m, x) in
  Array.iter
    (fun s ->
      Mutex.protect s.lock (fun () ->
          Array.iter (iter_chain (fun x m -> own (Some x) m)) s.buckets))
    t.stripes;
  (* adopted vectors no state has claimed *)
  Option.iter
    (fun a ->
      Mutex.protect t.pool_lock (fun () ->
          Arena.iter (fun _ m -> if m.id < size && owners.(m.id) = None then own None m) a))
    (Atomic.get t.arena);
  fun id ->
    match if id >= 0 && id < size then owners.(id) else None with
    | None -> invalid_arg "Intern.parts_of_id: id interned after the snapshot"
    | Some (m, x) ->
        let ids =
          match x with Some x -> pooled t m x | None -> Option.get (Atomic.get m.pooled)
        in
        (* one string per part id, so equal parts stay physically shared *)
        Mutex.protect t.pool_lock (fun () -> Array.map (fun i -> t.strings.(i)) ids)

let size (Table t) = Atomic.get t.next
