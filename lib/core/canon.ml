(* Process-permutation canonicalization over intern part arrays.

   A state's part array (header at index 0, one part per process at
   indexes 1..) is canonicalized under the permutations that respect a
   caller-supplied role partition: positions sharing a role are
   interchangeable, positions of distinct roles are not, and the header
   never moves.  The canonical form sorts each role class's parts
   lexicographically *within the class's own positions* (a stable
   tie-break on the original index keeps the witness deterministic), so
   two states are in the same orbit exactly when their per-class part
   multisets coincide.

   Soundness is the caller's obligation: the quotient is exact only for
   engines whose part strings are process-id-free (permuting the array
   *is* the group action on states) and whose successor relation is
   equivariant under role-respecting renamings. *)

type witness = int array

let uniform_roles ~len = Array.init len (fun i -> if i = 0 then -1 else 0)

let roles_of ~eq inputs =
  let n = Array.length inputs in
  let roles = Array.make (n + 1) (-1) in
  let reps = ref [] (* (value, role) in first-occurrence order *) in
  let next = ref 0 in
  for i = 0 to n - 1 do
    match List.find_opt (fun (v, _) -> eq v inputs.(i)) !reps with
    | Some (_, r) -> roles.(i + 1) <- r
    | None ->
        roles.(i + 1) <- !next;
        reps := (inputs.(i), !next) :: !reps;
        incr next
  done;
  roles

(* Positions of each role class, ascending, header slot excluded. *)
let classes ~roles len =
  let by_role = Hashtbl.create 8 in
  for i = len - 1 downto 1 do
    let r = roles.(i) in
    Hashtbl.replace by_role r (i :: Option.value (Hashtbl.find_opt by_role r) ~default:[])
  done;
  (* first-position order makes the class list itself deterministic *)
  Hashtbl.fold (fun _ ps acc -> ps :: acc) by_role []
  |> List.sort (fun a b -> compare (List.hd a) (List.hd b))

let sort ~roles parts =
  let len = Array.length parts in
  if Array.length roles <> len then invalid_arg "Canon.sort: roles/parts length mismatch";
  let canon = Array.copy parts in
  let witness = Array.init len Fun.id in
  List.iter
    (fun positions ->
      let ranked =
        List.stable_sort
          (fun (p, i) (q, j) ->
            let c = String.compare p q in
            if c <> 0 then c else compare i j)
          (List.map (fun i -> (parts.(i), i)) positions)
      in
      List.iter2
        (fun pos (part, orig) ->
          canon.(pos) <- part;
          witness.(pos) <- orig)
        positions ranked)
    (classes ~roles len);
  (canon, witness)

(* Length-prefixed join: injective whatever bytes the engine's part
   strings contain. *)
let render parts =
  let b = Buffer.create 64 in
  Array.iter
    (fun p ->
      Buffer.add_string b (string_of_int (String.length p));
      Buffer.add_char b ':';
      Buffer.add_string b p;
      Buffer.add_char b '\x1e')
    parts;
  Buffer.contents b

let key ~roles parts = render (fst (sort ~roles parts))

let rec fact n = if n <= 1 then 1 else n * fact (n - 1)

(* Orbit size under the role-respecting permutation group: per class,
   |class|! arrangements divided by the repeats of equal parts.  Exact
   for orbit-closed reachable sets (see the soundness note above). *)
let weight ~roles parts =
  let len = Array.length parts in
  if Array.length roles <> len then invalid_arg "Canon.weight: roles/parts length mismatch";
  List.fold_left
    (fun acc positions ->
      let sorted = List.sort String.compare (List.map (fun i -> parts.(i)) positions) in
      let denom, run, _ =
        List.fold_left
          (fun (denom, run, prev) p ->
            match prev with
            | Some q when String.equal p q -> (denom / 1, run + 1, Some p)
            | _ -> (denom * fact run, 1, Some p))
          (1, 0, None) sorted
      in
      let denom = denom * fact run in
      acc * (fact (List.length positions) / denom))
    1
    (classes ~roles len)

let apply_witness ~witness parts =
  Array.init (Array.length parts) (fun i -> parts.(witness.(i)))
