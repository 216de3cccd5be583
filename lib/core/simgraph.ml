module Stats = Layered_runtime.Stats

type 'a adapter = {
  parts : 'a -> int array;
  witness : 'a -> 'a -> int -> bool;
}

let pairwise ~rel states =
  let arr = Array.of_list states in
  (arr, Graph.of_pred ~size:(Array.length arr) (fun i j -> rel arr.(i) arr.(j)))

let masked_equal p q j =
  let len = Array.length p in
  len = Array.length q
  && begin
       let ok = ref true in
       for i = 0 to len - 1 do
         if i <> j && p.(i) <> q.(i) then ok := false
       done;
       !ok
     end

(* For each maskable position j, bucket the m states by a hash of their
   part ids with index j skipped: only states sharing a bucket can agree
   modulo j.  Candidates are then verified exactly (masked part-id
   equality, then the model's witness condition), so hash collisions
   cost a comparison but never an edge.  O(m·n) hashing replaces the
   O(m²·n) all-pairs probe; the verification work is output-sensitive.

   Edge-set equality with [pairwise ~rel:similar] holds because states
   that agree modulo j have identical masked signatures, hence identical
   bucket hashes.  The emitted edge *sequence* is also independent of
   the (interning-order-dependent) part-id values: buckets are scanned
   in input order and false bucket-mates are filtered by the exact
   check, so only the content-determined agree-modulo pairs survive, in
   input order. *)
(* Reusable scratch for the bucketed builder: one bucket table per
   maskable position plus the emitted-edge set.  A fresh build resets
   the tables in place ([Hashtbl.reset] keeps capacity), so a traversal
   that builds one graph per BFS level pays the table allocation once
   instead of once per layer. *)
type scratch = {
  mutable tables : (int, int list) Hashtbl.t array;
  scratch_emitted : (int, unit) Hashtbl.t;
}

let scratch () = { tables = [||]; scratch_emitted = Hashtbl.create 256 }

let scratch_table s j m =
  let have = Array.length s.tables in
  if j >= have then
    s.tables <-
      Array.init (j + 1) (fun i ->
          if i < have then s.tables.(i) else Hashtbl.create (2 * m));
  let tbl = s.tables.(j) in
  Hashtbl.reset tbl;
  tbl

let bucketed ?scratch:sc ad states =
  let arr = Array.of_list states in
  let m = Array.length arr in
  let parts = Array.map ad.parts arr in
  let nmask = Array.fold_left (fun acc p -> max acc (Array.length p - 1)) 0 parts in
  let edges = ref [] in
  let emitted =
    match sc with
    | None -> Hashtbl.create (4 * m)
    | Some s ->
        Hashtbl.reset s.scratch_emitted;
        s.scratch_emitted
  in
  let candidates = ref 0 in
  for j = 1 to nmask do
    let buckets =
      match sc with None -> Hashtbl.create (2 * m) | Some s -> scratch_table s j m
    in
    for i = 0 to m - 1 do
      let p = parts.(i) in
      if Array.length p > j then begin
        let h = ref (Array.length p) in
        Array.iteri (fun q v -> if q <> j then h := (!h * 486187739) + v) p;
        let earlier = Option.value (Hashtbl.find_opt buckets !h) ~default:[] in
        List.iter
          (fun i' ->
            incr candidates;
            if masked_equal parts.(i') p j && ad.witness arr.(i') arr.(i) j then begin
              let e = (i' * m) + i in
              if not (Hashtbl.mem emitted e) then begin
                Hashtbl.add emitted e ();
                edges := (i', i) :: !edges
              end
            end)
          earlier;
        Hashtbl.replace buckets !h (i :: earlier)
      end
    done
  done;
  Stats.add_simgraph_maskings (m * nmask);
  Stats.add_simgraph_candidates !candidates;
  (arr, Graph.of_edges ~size:m !edges)

(* A persistent builder instance: the engine holds one and routes every
   per-level graph construction through it, so consecutive levels reuse
   the same scratch tables instead of rebuilding them per layer.  The
   mutex makes concurrent builds safe (they serialize; builds from pool
   workers are rare and short). *)
module Incremental = struct
  type 'a t = { ad : 'a adapter; lock : Mutex.t; sc : scratch }

  let create ad = { ad; lock = Mutex.create (); sc = scratch () }

  let build t states =
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () -> bucketed ~scratch:t.sc t.ad states)
end
