open Layered_core
open Layered_topology

let escape s = String.concat "\\\"" (String.split_on_char '"' s)

let dot_of_rel ~name ~label ~rel states =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "graph \"%s\" {\n  node [shape=box];\n" (escape name));
  let arr = Array.of_list states in
  Array.iteri
    (fun i x ->
      Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" i (escape (label x))))
    arr;
  Array.iteri
    (fun i x ->
      Array.iteri
        (fun j y -> if i < j && rel x y then
            Buffer.add_string buf (Printf.sprintf "  n%d -- n%d;\n" i j))
        arr)
    arr;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let con0_similarity ~n ~t =
  let module P = (val Layered_protocols.Sync_floodset.make ~t) in
  let module E = Layered_sync.Engine.Make (P) in
  let initials = E.initial_states ~n ~values:[ Value.zero; Value.one ] in
  (* Reconstruct the input bits from the enumeration order. *)
  let label_of idx =
    String.init n (fun i -> if (idx lsr (n - 1 - i)) land 1 = 1 then '1' else '0')
  in
  let labelled = List.mapi (fun i x -> (label_of i, x)) initials in
  dot_of_rel
    ~name:(Printf.sprintf "Con0 similarity, n=%d" n)
    ~label:fst
    ~rel:(fun (_, x) (_, y) -> E.similar x y)
    labelled

let st_layer ~n ~t =
  let module P = (val Layered_protocols.Sync_floodset.make ~t) in
  let module E = Layered_sync.Engine.Make (P) in
  let succ = E.layer (E.st ~t) in
  let valence = Valence.create (E.valence_spec ~succ) in
  let classify x = Valence.classify valence ~depth:(t + 2) x in
  let initials = E.initial_states ~n ~values:[ Value.zero; Value.one ] in
  let x0 =
    match Layering.find_bivalent ~classify initials with
    | Some x -> x
    | None -> List.hd initials
  in
  let label x =
    Format.asprintf "%a / %d failed" Valence.pp_verdict (classify x) (E.failed_count x)
  in
  dot_of_rel
    ~name:(Printf.sprintf "S^t layer at a bivalent initial state, n=%d t=%d" n t)
    ~label ~rel:E.similar (succ x0)

let tasks =
  [
    ("consensus", fun ~n -> Task.consensus ~n ~values:[ Value.zero; Value.one ]);
    ("election", fun ~n -> Task.election ~n);
    ("weak-consensus", fun ~n -> Task.weak_consensus ~n);
    ("identity", fun ~n -> Task.identity ~n ~values:[ Value.zero; Value.one ]);
    ("kset2", fun ~n -> Task.k_set_agreement ~n ~k:2 ~values:[ 0; 1; 2 ]);
  ]

let task_names = List.map fst tasks

let task_thickness ~name ~n =
  let task =
    match List.assoc_opt name tasks with
    | Some make -> make ~n
    | None -> invalid_arg (Printf.sprintf "Export: unknown task %S" name)
  in
  let c = Task.c_delta task (Task.input_assignments task) in
  let simplexes = Complex.simplexes_of_size c n in
  dot_of_rel
    ~name:(Printf.sprintf "1-thickness of C_Delta(I), %s n=%d" task.Task.name n)
    ~label:(Format.asprintf "%a" Simplex.pp)
    ~rel:(fun a b -> Simplex.size (Simplex.inter a b) >= n - 1)
    simplexes
