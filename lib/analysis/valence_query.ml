open Layered_core

type t = {
  model : string;
  n : int;
  t : int;
  depth : int;
  verdicts : (string * Valence.verdict) list;
}

(* A classifier owns one engine instantiation: its valence memo is the
   warm state worth keeping between calls.  Complete memo entries are
   depth-monotone (see Valence), so one classifier serves every depth.
   The export/import pair carries the memo under part strings, so a
   daemon restart can rehydrate it from disk.

   Each classifier carries its own mutex (captured by the closures):
   the serve dispatcher runs requests on pool workers concurrently, and
   the engine's memo tables are plain [Hashtbl]s.  The lock also
   serialises the [set_budget]/classify/reset window, scoping one walk
   to the requesting client's per-request fault domain. *)
type memo = (string array * (int * Valence.outcome)) list

type classifier = {
  classify : ?budget:Layered_runtime.Budget.t -> depth:int -> unit ->
    (string * Valence.verdict) list;
  export_memo : unit -> memo;
  import_memo : memo -> unit;
}

let make_classifier (row : Models.t) ~n ~t =
  let module E = (val row.Models.engine ~t) in
  let initials = E.initial_states ~n ~values:[ Value.zero; Value.one ] in
  let valence = Valence.create (E.valence_spec ~succ:(E.memo_layer E.layer)) in
  let lock = Mutex.create () in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  {
    classify =
      (fun ?budget ~depth () ->
        locked (fun () ->
            Valence.set_budget valence budget;
            Fun.protect
              ~finally:(fun () -> Valence.set_budget valence None)
              (fun () ->
                List.map
                  (fun x -> (E.key x, Valence.classify valence ~depth x))
                  initials)));
    export_memo = (fun () -> locked (fun () -> E.export_memo valence));
    import_memo =
      (fun entries -> locked (fun () -> E.import_memo valence entries));
  }

type cache = {
  tbl : (string * int * int, classifier) Hashtbl.t;
  lock : Mutex.t;  (** guards [tbl]; per-classifier state has its own *)
}

let create_cache () : cache = { tbl = Hashtbl.create 16; lock = Mutex.create () }

let with_cache_lock (c : cache) f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

let cache_entries (c : cache) =
  with_cache_lock c (fun () -> Hashtbl.length c.tbl)

let find_classifier cache (row : Models.t) ~n ~t =
  let k = (row.Models.name, n, t) in
  with_cache_lock cache (fun () ->
      match Hashtbl.find_opt cache.tbl k with
      | Some cl -> cl
      | None ->
          let cl = make_classifier row ~n ~t in
          Hashtbl.add cache.tbl k cl;
          cl)

let run ?budget ?cache ~model ~n ~t ~depth () =
  if depth < 0 then
    invalid_arg (Printf.sprintf "Valence_query: negative depth %d" depth);
  let row = Models.get ~caller:"Valence_query" model in
  let cl =
    match cache with
    | None -> make_classifier row ~n ~t
    | Some cache -> find_classifier cache row ~n ~t
  in
  { model; n; t; depth; verdicts = cl.classify ?budget ~depth () }

(* ------------------------------------------------------------------ *)
(* Spill                                                              *)

type spill = ((string * int * int) * memo) list

let export_spill (c : cache) : spill =
  (* snapshot the classifier list under the cache lock, then export each
     under its own lock — never both at once, so a concurrent
     [find_classifier] cannot deadlock against an export *)
  let classifiers =
    with_cache_lock c (fun () ->
        Hashtbl.fold (fun k cl acc -> (k, cl) :: acc) c.tbl [])
  in
  List.map (fun (k, cl) -> (k, cl.export_memo ())) classifiers
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.filter (fun (_, entries) -> entries <> [])

let import_spill (c : cache) (s : spill) =
  List.iter
    (fun ((model, n, t), entries) ->
      (* a spill written by a build that knew more models than this one:
         skip the stranger, keep the rest *)
      Option.iter
        (fun row -> (find_classifier c row ~n ~t).import_memo entries)
        (Models.find model))
    s

let spill_entries (s : spill) =
  List.fold_left (fun acc (_, entries) -> acc + List.length entries) 0 s

let tally t =
  List.fold_left
    (fun (b, u, k) (_, v) ->
      match v with
      | Valence.Bivalent -> (b + 1, u, k)
      | Valence.Univalent _ -> (b, u + 1, k)
      | Valence.Unknown -> (b, u, k + 1))
    (0, 0, 0) t.verdicts

let pp ppf t =
  Format.fprintf ppf "model=%s n=%d t=%d depth=%d@." t.model t.n t.t t.depth;
  let width =
    List.fold_left (fun w (k, _) -> max w (String.length k)) 5 t.verdicts
  in
  List.iter
    (fun (k, v) ->
      Format.fprintf ppf "%-*s  %a@." width k Valence.pp_verdict v)
    t.verdicts;
  let b, u, k = tally t in
  Format.fprintf ppf "%d states: %d bivalent, %d univalent, %d unknown@."
    (List.length t.verdicts) b u k
