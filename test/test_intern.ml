(* Tests for state identity (Intern) and the bucketed similarity-graph
   construction (Simgraph): id determinism and density, rehash, misses
   that render nothing, keys and parts rendered on demand, adopted part
   vectors, marshal-safe memo slots, domain-safety; over random walks on
   all five engines, with dedicated sync omission and synchronic-mp
   slow-process schedules, the ident/key/parts invariants and the
   bucketed similarity graph's equality with the all-pairs reference;
   and every protocol's canonical views, against a BFS that dedups by
   rendered key. *)

open Layered_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Intern *)

let string_table ?size () =
  Intern.create ?size ~view:Fun.id ~key:Fun.id ~parts:(fun s -> [| ""; s |]) ()

let test_intern_dense_ids () =
  let t = string_table () in
  let ids = List.map (fun w -> (Intern.intern t w).Intern.id)
      [ "alpha"; "beta"; "gamma"; "beta"; "alpha"; "delta" ]
  in
  (match ids with
  | [ a; b; c; b'; a'; d ] ->
      check_int "repeat alpha" a a';
      check_int "repeat beta" b b';
      Alcotest.(check (list int)) "dense, first-seen order" [ 0; 1; 2; 3 ] [ a; b; c; d ]
  | _ -> Alcotest.fail "expected six metas");
  check_int "size counts distinct keys" 4 (Intern.size t)

(* Enough values that every stripe's bucket array grows more than once. *)
let test_intern_rehash () =
  let t = string_table ~size:2 () in
  let metas = List.init 5000 (fun i -> Intern.intern t (string_of_int i)) in
  check_int "all distinct survive rehash" 5000 (Intern.size t);
  List.iteri
    (fun i m ->
      check_int "id stable across rehash" m.Intern.id
        (Intern.intern t (string_of_int i)).Intern.id)
    metas

let test_intern_meta_fields () =
  let t =
    Intern.create ~view:Fun.id
      ~key:(fun (a, b) -> a ^ "|" ^ b)
      ~parts:(fun (a, b) -> [| ""; a; b |])
      ()
  in
  let x1 = ("x", "y") and x2 = ("x", "z") and x3 = ("w", "y") in
  let m1 = Intern.intern t x1 and m2 = Intern.intern t x2 and m3 = Intern.intern t x3 in
  let p1 = Intern.parts t m1 x1 and p2 = Intern.parts t m2 x2 and p3 = Intern.parts t m3 x3 in
  check "key preserved verbatim" true (String.equal (Intern.key t m1 x1) "x|y");
  check_int "equal components share a part id" p1.(1) p2.(1);
  check_int "part ids are positional, not global" p1.(2) p3.(2);
  check "distinct components get distinct part ids" true (p1.(2) <> p2.(2))

(* A toy table over int lists, keyed by their rendering: a canonical
   view (equal lists exactly when equal keys).  Counters record every
   key and parts render. *)
let counted_table () =
  let key_renders = Atomic.make 0 and part_renders = Atomic.make 0 in
  let render l = String.concat "," (List.map string_of_int l) in
  let t =
    Intern.create ~view:Fun.id
      ~key:(fun l ->
        Atomic.incr key_renders;
        render l)
      ~parts:(fun l ->
        Atomic.incr part_renders;
        [| ""; render l |])
      ()
  in
  (t, key_renders, part_renders)

let test_intern_misses_render_nothing () =
  let t, keys, parts = counted_table () in
  let values = List.init 40 (fun i -> [ i mod 8; 10 + (i mod 5) ]) in
  let metas = List.map (Intern.intern t) values in
  check_int "distinct values, distinct ids" 40 (Intern.size t);
  List.iter (fun v -> ignore (Intern.intern t v)) values;
  check_int "interning renders no key" 0 (Atomic.get keys);
  check_int "interning renders no parts" 0 (Atomic.get parts);
  let pooled = List.map2 (Intern.parts t) metas values in
  check_int "parts render once per meta" 40 (Atomic.get parts);
  check "later demands return the first pooling" true
    (List.for_all2 ( == ) pooled (List.map2 (Intern.parts t) metas values));
  check_int "and render nothing" 40 (Atomic.get parts);
  check "pooled parts are the fresh render's" true
    (List.for_all2 (fun p v -> p = Intern.part_ids t v) pooled values);
  check_int "still no key" 0 (Atomic.get keys)

let test_intern_keys_on_demand () =
  let t, keys, _ = counted_table () in
  let values = List.init 50 (fun i -> [ i mod 7; i mod 5 ]) in
  let metas = List.map (Intern.intern t) values in
  List.iter (fun v -> ignore (Intern.intern t v)) values;
  check_int "interning renders no key" 0 (Atomic.get keys);
  List.iter2 (fun m v -> ignore (Intern.key t m v)) metas values;
  List.iter2 (fun m v -> ignore (Intern.key t m v)) metas values;
  check_int "one render per meta" (Intern.size t) (Atomic.get keys)

(* Adopting a part vector: a state already held with those parts keeps
   its id; a vector no state has is claimed, as an intern hit, by the
   first state interned later with those parts. *)
let test_intern_adopt () =
  let t, _, _ = counted_table () in
  let held = [ 1; 2 ] and later = [ 7; 8 ] in
  let m = Intern.intern t held in
  check_int "held state's parts adopt to its id" m.Intern.id (Intern.adopt t [| ""; "1,2" |]);
  check_int "no new identity" 1 (Intern.size t);
  let k = Intern.adopt t [| ""; "7,8" |] in
  check_int "an unheld vector gets the next id" 1 k;
  check_int "adopting it again" k (Intern.adopt t [| ""; "7,8" |]);
  let before = Layered_runtime.Stats.snapshot () in
  let m' = Intern.intern t later in
  let after = Layered_runtime.Stats.snapshot () in
  check_int "a later state claims the adopted id" k m'.Intern.id;
  check_int "the claim is an intern hit" 1
    Layered_runtime.Stats.(after.intern_hits - before.intern_hits);
  check_int "and interns no new state" 0
    Layered_runtime.Stats.(after.interned_states - before.interned_states);
  check_int "identities: held + claimed" 2 (Intern.size t);
  check "a structurally new state after adopting gets a fresh id" true
    ((Intern.intern t [ 9 ]).Intern.id = 2);
  let parts_of = Intern.parts_of_id t in
  Alcotest.(check (array string)) "parts of the claimed id" [| ""; "7,8" |] (parts_of k)

(* Memo slots survive [Marshal]: the revived slot is foreign to the table,
   so the value transparently re-interns — to the same id, with no
   duplicate table entry (the checkpoint/resume path relies on this). *)
type boxed = { label : string; slot : Intern.slot }

let test_intern_memo_marshal () =
  let t =
    Intern.create ~view:(fun b -> b.label) ~key:(fun b -> b.label)
      ~parts:(fun b -> [| ""; b.label |])
      ()
  in
  let x = { label = "persist-me"; slot = Intern.fresh_slot () } in
  let m = Intern.memo t x.slot x in
  let y : boxed = Marshal.from_string (Marshal.to_string x []) 0 in
  let m' = Intern.memo t y.slot y in
  check_int "same id after marshal round-trip" m.Intern.id m'.Intern.id;
  check_int "no duplicate entry" 1 (Intern.size t)

(* Four domains intern the same values and force their keys at once:
   every domain sees the same ids and physically the same key strings
   (one render published per meta). *)
let test_intern_domains () =
  let t, _, _ = counted_table () in
  let values = List.init 64 (fun i -> [ i mod 16; 16 + (i mod 3) ]) in
  let distinct = List.length (List.sort_uniq compare values) in
  let ready = Atomic.make 0 in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < 4 do
              Domain.cpu_relax ()
            done;
            List.map
              (fun v ->
                let m = Intern.intern t v in
                (m.Intern.id, Intern.key t m v))
              values))
  in
  let results = List.map Domain.join doms in
  check_int "one identity per distinct value" distinct (Intern.size t);
  match results with
  | r0 :: rest ->
      List.iter
        (fun r ->
          check "domains agree on every id" true (List.map fst r = List.map fst r0);
          check "domains see the same key strings" true
            (List.for_all2 (fun (_, k) (_, k0) -> k == k0) r r0))
        rest
  | [] -> Alcotest.fail "no domains"

(* ------------------------------------------------------------------ *)
(* Simgraph *)

let test_masked_equal () =
  check "equal except j" true (Simgraph.masked_equal [| 0; 1; 2 |] [| 0; 9; 2 |] 1);
  check "differs elsewhere too" false
    (Simgraph.masked_equal [| 0; 1; 2 |] [| 5; 9; 2 |] 1);
  check "identical arrays" true (Simgraph.masked_equal [| 0; 1; 2 |] [| 0; 1; 2 |] 2)

let edges_of g =
  List.concat_map
    (fun u ->
      List.filter_map (fun v -> if u < v then Some (u, v) else None) (Graph.neighbours g u))
    (List.init (Graph.size g) Fun.id)
  |> List.sort compare

let graphs_equal g h = Graph.size g = Graph.size h && edges_of g = edges_of h

module P = (val Layered_protocols.Sync_floodset.make ~t:1)
module E = Layered_sync.Engine.Make (P)
module SMP = Layered_async_mp.Synchronic.Make (P)

let dedup_by ident states =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x ->
      let k = ident x in
      if Hashtbl.mem seen k then false else (Hashtbl.add seen k (); true))
    states

(* A pseudo-random walk: at each round pick one action out of the enabled
   set, steered by the QCheck-generated [picks] — a randomized omission
   (resp. slow-process) schedule per initial state. *)
let walk ~rounds ~picks ~actions ~apply x0 =
  let np = Array.length picks in
  let rec go x r salt acc =
    if r >= rounds then x :: acc
    else
      let acts = actions x in
      let a = List.nth acts (picks.((salt + r) mod np) mod List.length acts) in
      go (apply x a) (r + 1) (salt + 13) (x :: acc)
  in
  go x0 0 (Hashtbl.hash (picks, rounds)) []

let schedule_arb =
  QCheck.(
    triple (int_range 3 4) (int_range 0 2)
      (list_of_size (Gen.int_range 1 8) (int_bound 1000)))

let prop_sync_builders_agree =
  QCheck.Test.make ~name:"simgraph: bucketed = pairwise (sync omission schedules)"
    ~count:40 schedule_arb (fun (n, rounds, picks) ->
      let picks = Array.of_list (if picks = [] then [ 0 ] else picks) in
      let states =
        List.concat_map
          (walk ~rounds ~picks ~actions:(E.actions_at (E.st ~t:1)) ~apply:(E.apply E.Crash))
          (E.initial_states ~n ~values:[ Value.zero; Value.one ])
        |> dedup_by E.ident
      in
      let _, gp = Simgraph.pairwise ~rel:E.similar states in
      let _, gb = E.similarity_graph states in
      graphs_equal gp gb)

let prop_smp_builders_agree =
  QCheck.Test.make
    ~name:"simgraph: bucketed = pairwise (synchronic-mp slow-process schedules)"
    ~count:20 schedule_arb (fun (n, rounds, picks) ->
      let n = min n 3 in
      let picks = Array.of_list (if picks = [] then [ 0 ] else picks) in
      let states =
        List.concat_map
          (walk ~rounds ~picks
             ~actions:(fun _ -> SMP.actions ~n)
             ~apply:SMP.apply)
          (SMP.initial_states ~n ~values:[ Value.zero; Value.one ])
        |> dedup_by SMP.ident
      in
      let _, gp = Simgraph.pairwise ~rel:SMP.similar states in
      let _, gb = SMP.similarity_graph states in
      graphs_equal gp gb)

(* ------------------------------------------------------------------ *)
(* Engine-level interning invariants *)

let layer1 ~n =
  let initials = E.initial_states ~n ~values:[ Value.zero; Value.one ] in
  initials @ List.concat_map (E.layer (E.st ~t:1)) initials

let test_ident_iff_key () =
  let states = Array.of_list (layer1 ~n:3) in
  let m = Array.length states in
  for i = 0 to m - 1 do
    for j = i to m - 1 do
      let x = states.(i) and y = states.(j) in
      let by_key = String.equal (E.key x) (E.key y) in
      check "ident = key equality" true (E.ident x = E.ident y = by_key);
      check "equal = key equality" true (E.equal x y = by_key)
    done
  done

let test_agree_modulo_matches_similar () =
  let states = layer1 ~n:3 |> dedup_by E.ident in
  let _, g = E.similarity_graph states in
  let arr = Array.of_list states in
  Array.iteri
    (fun i x ->
      Array.iteri
        (fun j y ->
          if i < j then
            check "graph edge iff similar" true
              (List.mem j (Graph.neighbours g i) = E.similar x y))
        arr)
    arr

(* Valence by its definition, walked afresh at every node: no memo, no
   identity, nothing shared with the engine but the spec. *)
let rec reference_outcome (spec : 'a Valence.spec) ~depth x =
  if spec.terminal x then { Valence.vals = spec.decided x; complete = true }
  else if depth = 0 then { Valence.vals = spec.decided x; complete = false }
  else
    match spec.succ x with
    | [] -> { Valence.vals = spec.decided x; complete = false }
    | children ->
        List.fold_left
          (fun (acc : Valence.outcome) y ->
            let o = reference_outcome spec ~depth:(depth - 1) y in
            { vals = Vset.union acc.vals o.vals; complete = acc.complete && o.complete })
          { Valence.vals = spec.decided x; complete = true }
          children

(* The id-keyed memo must answer exactly as the memo-free walk does. *)
let test_valence_ident_agrees () =
  let spec = E.valence_spec ~succ:(E.layer (E.st ~t:1)) in
  let v = Valence.create spec in
  List.iter
    (fun x ->
      let o = Valence.outcome v ~depth:3 x and r = reference_outcome spec ~depth:3 x in
      check "memoised vals = reference" true (Vset.equal o.vals r.vals);
      check "memoised completeness = reference" true (o.complete = r.complete))
    (E.initial_states ~n:3 ~values:[ Value.zero; Value.one ])

(* [memo_layer layer] lists the ids [layer] lists at every state of a
   depth-2 walk, in every model row, and a marshalled copy of the state
   (an equal state, another object) gets the list the state left. *)
let test_memo_layer_rows () =
  List.iter
    (fun (row : Layered_analysis.Models.t) ->
      let module E = (val row.Layered_analysis.Models.engine ~t:1) in
      let memo = E.memo_layer E.layer in
      let ids = List.map E.ident in
      List.iter
        (fun x0 ->
          List.iter
            (fun x ->
              let want = ids (E.layer x) and first = memo x in
              let copy : E.state = Marshal.from_string (Marshal.to_string x []) 0 in
              Alcotest.(check (list int)) (row.name ^ ": memo_layer = layer") want (ids first);
              check (row.name ^ ": the copy is another object") true (copy != x);
              check (row.name ^ ": the copy gets the kept list") true (memo copy == first))
            Layered_runtime.(
              (Frontier.reachable Pool.serial ~succ:E.layer ~ident:E.ident ~depth:2 x0)
                .Budget.value))
        (E.initial_states ~n:3 ~values:[ Value.zero; Value.one ]))
    Layered_analysis.Models.all

(* The identity invariants on all five engines, over random walks: ids
   partition states exactly as keys do, every meta's part vector is the
   pool image of the state's freshly rendered parts, and adopting an
   id's part strings gives back that id without growing the table. *)
type 's subject = {
  table : 's Intern.t;
  initials : n:int -> 's list;
  actions : 's -> (unit -> 's) list;
  key : 's -> string;
  ident : 's -> int;
  parts : 's -> int array;
  pooled : 's -> int array;
  similar : 's -> 's -> bool;
  similarity_graph : 's list -> 's array * Graph.t;
}

let walk_states e (n, rounds, picks) =
  let picks = Array.of_list (if picks = [] then [ 0 ] else picks) in
  List.concat_map
    (walk ~rounds ~picks ~actions:e.actions ~apply:(fun _ step -> step ()))
    (e.initials ~n)

let subject_holds (type s) (e : s subject) case =
  let states = Array.of_list (walk_states e case) in
  let ok = ref true in
  Array.iteri
    (fun i x ->
      if e.parts x <> e.pooled x then ok := false;
      for j = i to Array.length states - 1 do
        let y = states.(j) in
        if (e.ident x = e.ident y) <> String.equal (e.key x) (e.key y) then ok := false
      done)
    states;
  let parts_of = Intern.parts_of_id e.table and size = Intern.size e.table in
  Array.iter
    (fun x ->
      if Intern.adopt e.table (parts_of (e.ident x)) <> e.ident x then ok := false)
    states;
  !ok && Intern.size e.table = size

let subject_simgraph_agrees (type s) (e : s subject) case =
  let states = dedup_by e.ident (walk_states e case) in
  let _, gp = Simgraph.pairwise ~rel:e.similar states in
  let _, gb = e.similarity_graph states in
  graphs_equal gp gb

let values = [ Value.zero; Value.one ]

module IP = (val Layered_protocols.Full_info.iis ~horizon:2)
module IE = Layered_iis.Engine.Make (IP)
module SP = (val Layered_protocols.Sm_voting.make ~horizon:2)
module SE = Layered_async_sm.Engine.Make (SP)
module MP = (val Layered_protocols.Full_info.message_passing ~horizon:2)
module ME = Layered_async_mp.Engine.Make (MP)

let thunks apply x acts = List.map (fun a () -> apply x a) acts

let sync_subject =
  {
    initials = (fun ~n -> E.initial_states ~n ~values);
    actions = (fun x -> thunks (E.apply E.Crash) x (E.actions_at (E.st ~t:1) x));
    table = E.intern_table;
    key = E.key;
    ident = E.ident;
    parts =
      (fun x -> Intern.parts E.intern_table (Intern.memo E.intern_table x.E.interned x) x);
    pooled = Intern.part_ids E.intern_table;
    similar = E.similar;
    similarity_graph = E.similarity_graph;
  }

let iis_subject =
  {
    initials = (fun ~n -> IE.initial_states ~n ~values);
    actions = (fun x -> thunks IE.apply x (Layered_iis.Engine.partitions ~n:(IE.n_of x)));
    table = IE.intern_table;
    key = IE.key;
    ident = IE.ident;
    parts =
      (fun x -> Intern.parts IE.intern_table (Intern.memo IE.intern_table x.IE.interned x) x);
    pooled = Intern.part_ids IE.intern_table;
    similar = IE.similar;
    similarity_graph = IE.similarity_graph;
  }

let sm_subject =
  {
    initials = (fun ~n -> SE.initial_states ~n ~values);
    actions = (fun x -> thunks SE.apply x (SE.actions ~n:(SE.n_of x)));
    table = SE.intern_table;
    key = SE.key;
    ident = SE.ident;
    parts =
      (fun x -> Intern.parts SE.intern_table (Intern.memo SE.intern_table x.SE.interned x) x);
    pooled = Intern.part_ids SE.intern_table;
    similar = SE.similar;
    similarity_graph = SE.similarity_graph;
  }

let mp_subject =
  {
    initials = (fun ~n -> ME.initial_states ~n:(min n 3) ~values);
    actions = (fun x -> thunks ME.apply x (ME.schedules ~n:(ME.n_of x)));
    table = ME.intern_table;
    key = ME.key;
    ident = ME.ident;
    parts =
      (fun x -> Intern.parts ME.intern_table (Intern.memo ME.intern_table x.ME.interned x) x);
    pooled = Intern.part_ids ME.intern_table;
    similar = ME.similar;
    similarity_graph = ME.similarity_graph;
  }

let smp_subject =
  {
    initials = (fun ~n -> SMP.initial_states ~n:(min n 3) ~values);
    actions = (fun x -> thunks SMP.apply x (SMP.actions ~n:(SMP.n_of x)));
    table = SMP.intern_table;
    key = SMP.key;
    ident = SMP.ident;
    parts =
      (fun x -> Intern.parts SMP.intern_table (Intern.memo SMP.intern_table x.SMP.interned x) x);
    pooled = Intern.part_ids SMP.intern_table;
    similar = SMP.similar;
    similarity_graph = SMP.similarity_graph;
  }

let prop_engine_identity =
  QCheck.Test.make ~name:"intern: ident iff key, parts pooled (five engines)" ~count:25
    schedule_arb (fun case ->
      subject_holds sync_subject case && subject_holds iis_subject case
      && subject_holds sm_subject case && subject_holds mp_subject case
      && subject_holds smp_subject case)

let prop_engine_simgraph =
  QCheck.Test.make ~name:"simgraph: bucketed = pairwise (five engines)" ~count:30
    schedule_arb (fun case ->
      subject_simgraph_agrees sync_subject case && subject_simgraph_agrees iis_subject case
      && subject_simgraph_agrees sm_subject case && subject_simgraph_agrees mp_subject case
      && subject_simgraph_agrees smp_subject case)

(* ------------------------------------------------------------------ *)
(* Layer-at-once successors against per-action references *)

(* Each engine's layering shares sends, writes, steps and schedule
   prefixes across a layer.  The references below compute every
   successor on its own, over the states' readable fields, as the
   engines did before that sharing: the sync, IIS and synchronic-mp
   round bodies are copied here; [S^rw] and [S^per] are checked against
   their micro-step semantics ([apply_events] of [compile], the fold of
   [apply_entry]).  Successors are compared as views (every field, local
   states by key) in action order, the reference list de-duplicated
   first-occurrence-first as the layering is. *)

let ref_sync discipline (x : E.state) { E.marks; drops } =
  let n = E.n_of x in
  let omission = match discipline with E.Omission -> true | E.Mobile | E.Crash -> false in
  let marked = Array.make n false in
  List.iter (fun j -> marked.(j - 1) <- true) marks;
  let blocked i j = List.exists (fun o -> o.E.sender = i && List.mem j o.E.blocked) drops in
  let silenced idx = (not omission) && x.E.failed.(idx) in
  let round = x.E.round + 1 in
  let received_by j =
    Array.init n (fun idx ->
        let i = idx + 1 in
        if i = j || silenced idx || blocked i j then None
        else P.send ~n ~round ~pid:i x.E.locals.(idx) ~dest:j)
  in
  let locals =
    Array.init n (fun idx ->
        P.step ~n ~round ~pid:(idx + 1) x.E.locals.(idx) ~received:(received_by (idx + 1)))
  in
  let failed =
    match discipline with
    | E.Mobile -> Array.copy x.E.failed
    | E.Crash | E.Omission -> Array.init n (fun idx -> x.E.failed.(idx) || marked.(idx))
  in
  (round, Array.map P.key locals, failed)

let sync_view (x : E.state) = (x.E.round, Array.map P.key x.E.locals, x.E.failed)

let ref_iis (x : IE.state) blocks =
  let n = IE.n_of x in
  let writes = Array.init n (fun idx -> IP.write ~n ~pid:(idx + 1) x.IE.locals.(idx)) in
  let locals = Array.copy x.IE.locals in
  let rec run seen = function
    | [] -> ()
    | block :: rest ->
        let seen = List.sort compare (seen @ block) in
        let snapshot = List.map (fun i -> (i, writes.(i - 1))) seen in
        List.iter
          (fun i -> locals.(i - 1) <- IP.step ~n ~pid:i x.IE.locals.(i - 1) ~snapshot)
          block;
        run seen rest
  in
  run [] blocks;
  (x.IE.round + 1, Array.map IP.key locals)

let iis_view (x : IE.state) = (x.IE.round, Array.map IP.key x.IE.locals)

module Smp_action = Layered_async_mp.Synchronic

let ref_smp (x : SMP.state) { Smp_action.slow = j; mode } =
  let n = SMP.n_of x in
  let round = x.SMP.round + 1 in
  let absent = match mode with Smp_action.Absent -> true | Smp_action.Late _ -> false in
  let fresh =
    List.concat_map
      (fun i ->
        if absent && i = j then []
        else
          List.filter_map
            (fun d ->
              Option.map
                (fun msg -> (i, d, msg, round))
                (P.send ~n ~round ~pid:i x.SMP.locals.(i - 1) ~dest:d))
            (Pid.others n i))
      (Pid.all n)
  in
  let old = List.map (fun p -> SMP.(p.src, p.dst, p.msg, p.sent)) x.SMP.transit in
  let eligible i (src, dst, _, sent) =
    dst = i
    &&
    match mode with
    | Smp_action.Late k when i <> j && i <= k -> not (src = j && sent = round)
    | Smp_action.Late _ | Smp_action.Absent -> true
  in
  let indexed = List.mapi (fun idx p -> (idx, p)) (old @ fresh) in
  let delivered = Hashtbl.create 16 in
  let received_by i =
    let inbox = Array.make n None in
    List.iter
      (fun (idx, ((src, _, msg, _) as p)) ->
        if eligible i p && Option.is_none inbox.(src - 1) then begin
          inbox.(src - 1) <- Some msg;
          Hashtbl.replace delivered idx ()
        end)
      indexed;
    inbox
  in
  let locals =
    Array.init n (fun idx ->
        let i = idx + 1 in
        if absent && i = j then x.SMP.locals.(idx)
        else P.step ~n ~round ~pid:i x.SMP.locals.(idx) ~received:(received_by i))
  in
  let transit =
    List.filter_map
      (fun (idx, (src, dst, msg, sent)) ->
        if Hashtbl.mem delivered idx then None else Some (src, dst, sent, P.msg_key msg))
      indexed
  in
  (round, Array.map P.key locals, transit)

let smp_view (x : SMP.state) =
  ( x.SMP.round,
    Array.map P.key x.SMP.locals,
    List.map (fun p -> SMP.(p.src, p.dst, p.sent, P.msg_key p.msg)) x.SMP.transit )

let sm_view (x : SE.state) =
  (x.SE.phase, Array.map (Option.map SP.reg_key) x.SE.regs, Array.map SP.key x.SE.locals)

let mp_view (x : ME.state) =
  ( x.ME.round,
    Array.map MP.key x.ME.locals,
    Array.map (List.map (fun (src, m) -> (src, MP.msg_key m))) x.ME.mail )

(* [layer x] equals the de-duplicated references over [actions x],
   [size x] is its length, and [apply x a] equals each reference, at
   every state of the walks. *)
let layering_matches (type s) (e : s subject) case ~actions ~apply ~layer ~size ~view
    ~reference =
  List.for_all
    (fun x ->
      let acts = actions x in
      let refs = List.map (reference x) acts in
      let layer = layer x in
      List.map view layer = dedup_by Fun.id refs
      && size x = List.length layer
      && List.map (fun a -> view (apply x a)) acts = refs)
    (walk_states e case)

let prop_sync_reference =
  QCheck.Test.make ~name:"reference: sync layers = per-action rounds (five adversaries)"
    ~count:20 schedule_arb (fun case ->
      List.for_all
        (fun (adv : E.adversary) ->
          layering_matches sync_subject case ~actions:(E.actions_at adv)
            ~apply:(E.apply adv.discipline) ~layer:(E.layer adv) ~size:(E.layer_size adv)
            ~view:sync_view
            ~reference:(ref_sync adv.discipline))
        [
          E.s1;
          E.st ~t:1;
          E.s_multi ~omitters:2;
          E.crash ~max_new:2 ~t:2;
          E.omission ~general:true ~max_new:1 ~t:1;
        ])

let prop_iis_reference =
  QCheck.Test.make ~name:"reference: IIS layer = per-action rounds" ~count:15 schedule_arb
    (layering_matches iis_subject
       ~actions:(fun x -> Layered_iis.Engine.partitions ~n:(IE.n_of x))
       ~apply:IE.apply ~layer:IE.layer ~size:IE.layer_size ~view:iis_view ~reference:ref_iis)

let prop_smp_reference =
  QCheck.Test.make ~name:"reference: synchronic-mp layer = per-action rounds" ~count:20
    schedule_arb
    (layering_matches smp_subject
       ~actions:(fun x -> SMP.actions ~n:(SMP.n_of x))
       ~apply:SMP.apply ~layer:SMP.smp ~size:SMP.smp_size ~view:smp_view
       ~reference:ref_smp)

let prop_srw_reference =
  QCheck.Test.make ~name:"reference: S^rw = apply_events of compile" ~count:20 schedule_arb
    (layering_matches sm_subject
       ~actions:(fun x -> SE.actions ~n:(SE.n_of x))
       ~apply:SE.apply ~layer:SE.srw ~size:SE.srw_size ~view:sm_view
       ~reference:(fun x a -> sm_view (SE.apply_events x (SE.compile x a))))

let prop_sper_reference =
  QCheck.Test.make ~name:"reference: S^per = fold of apply_entry" ~count:20 schedule_arb
    (layering_matches mp_subject
       ~actions:(fun x -> ME.schedules ~n:(ME.n_of x))
       ~apply:ME.apply ~layer:ME.sper ~size:ME.sper_size ~view:mp_view
       ~reference:(fun x s ->
         let round, locals, mail = mp_view (List.fold_left ME.apply_entry x s) in
         (round + 1, locals, mail)))

(* The layer kernel alone, on random rows: process [c + 1]'s value under
   label [p] is [p mod 3] and the environment's under label [e] is
   [e mod 2], so distinct labels share classes.  Each row takes its
   process labels from one of three random vectors, so rows often agree
   everywhere but in the environment.  The kernel must keep the first
   row of each vector of values, in row order, and [layer_size] must
   count them.  Seventy columns are more than [Hashtbl.hash] reads of a
   row's class vector, so there rows that differ only in a late column
   share a hash. *)
let prop_kernel_first_rows =
  QCheck.Test.make ~name:"kernel: first row per class vector" ~count:60
    QCheck.(
      triple (oneofl [ 2; 70 ])
        (list_of_size (Gen.return 3) (list_of_size (Gen.return 70) (int_bound 5)))
        (list_of_size (Gen.int_range 1 40) (pair (int_bound 2) (int_bound 5))))
    (fun (n, pool, picks) ->
      let pool = Array.of_list (List.map (fun ps -> Array.sub (Array.of_list ps) 0 n) pool) in
      let labelled = List.map (fun (k, e) -> (pool.(k), e)) picks in
      let rows = Engine_core.rows ~n labelled in
      let local _ p = p mod 3 and env e = e mod 2 in
      let got = Engine_core.layer rows ~local ~env ~build:(fun row v -> (row, v)) in
      let want =
        dedup_by Fun.id (List.map (fun (ps, e) -> (Array.map (local 0) ps, env e)) labelled)
      in
      got = want && Engine_core.layer_size rows ~local ~env = List.length want)

(* ------------------------------------------------------------------ *)
(* Canonical views, protocol by protocol *)

(* The identity is the engine's view, so a protocol whose local state is
   structurally different for key-equal states (an unsorted set, say)
   splits one state into several ids.  Each protocol runs on every
   substrate and layering the analyses run it on; [Frontier]'s
   id-deduplicated levels must match the levels of the reference BFS,
   which dedups by a key rendered here from the state's fields through
   the protocol's own key functions, sharing nothing with [Intern]. *)
type levels_case =
  | Case : {
      name : string;
      initials : 's list;
      succ : 's -> 's list;
      ident : 's -> int;
      key : 's -> string;
    }
      -> levels_case

let render v = Marshal.to_string v [ Marshal.No_sharing ]
let binary = [ Value.zero; Value.one ]
let ternary = [ Value.zero; Value.one; Value.of_int 2 ]

let sync_case name protocol ~adversary =
  let module P = (val protocol : Layered_sync.Protocol.S) in
  let module E = Layered_sync.Engine.Make (P) in
  let adv =
    match adversary with
    | `S1 -> E.s1
    | `St -> E.st ~t:1
    | `Crash -> E.crash ~max_new:2 ~t:1
    | `Omission -> E.omission ~general:true ~max_new:1 ~t:1
  in
  Case
    {
      name;
      initials = E.initial_states ~n:3 ~values:binary;
      succ = E.layer adv;
      ident = E.ident;
      key = (fun x -> render (x.E.round, Array.map P.key x.E.locals, x.E.failed));
    }

let sm_case name protocol ~values =
  let module P = (val protocol : Layered_async_sm.Protocol.S) in
  let module E = Layered_async_sm.Engine.Make (P) in
  Case
    {
      name;
      initials = E.initial_states ~n:3 ~values;
      succ = E.srw;
      ident = E.ident;
      key =
        (fun x ->
          render (x.E.phase, Array.map (Option.map P.reg_key) x.E.regs, Array.map P.key x.E.locals));
    }

let mp_case ?(n = 3) name protocol ~values =
  let module P = (val protocol : Layered_async_mp.Protocol.S) in
  let module E = Layered_async_mp.Engine.Make (P) in
  Case
    {
      name;
      initials = E.initial_states ~n ~values;
      succ = E.sper;
      ident = E.ident;
      key =
        (fun x ->
          render
            ( x.E.round,
              Array.map P.key x.E.locals,
              Array.map (List.map (fun (src, m) -> (src, P.msg_key m))) x.E.mail ));
    }

let smp_case name protocol =
  let module P = (val protocol : Layered_sync.Protocol.S) in
  let module E = Layered_async_mp.Synchronic.Make (P) in
  Case
    {
      name;
      initials = E.initial_states ~n:3 ~values:binary;
      succ = E.smp;
      ident = E.ident;
      key =
        (fun x ->
          render
            ( x.E.round,
              Array.map P.key x.E.locals,
              List.map (fun p -> E.(p.src, p.dst, p.sent, P.msg_key p.msg)) x.E.transit ));
    }

let iis_case name protocol ~values =
  let module P = (val protocol : Layered_iis.Protocol.S) in
  let module E = Layered_iis.Engine.Make (P) in
  Case
    {
      name;
      initials = E.initial_states ~n:3 ~values;
      succ = E.layer;
      ident = E.ident;
      key = (fun x -> render (x.E.round, Array.map P.key x.E.locals));
    }

module Proto = Layered_protocols

let first_initial (Case c) = Case { c with initials = [ List.hd c.initials ] }

(* The six model rows first, then every other protocol the analyses run. *)
let levels_cases () =
  [
    sync_case "mobile: floodset / S_1" (Proto.Sync_floodset.make ~t:1) ~adversary:`S1;
    sync_case "sync: floodset / S^t" (Proto.Sync_floodset.make ~t:1) ~adversary:`St;
    sm_case "sm: voting / S^rw" (Proto.Sm_voting.make ~horizon:2) ~values:binary;
    mp_case "mp: floodset / S^per" (Proto.Mp_floodset.make ~horizon:2) ~values:binary;
    smp_case "smp: floodset / synchronic" (Proto.Sync_floodset.make ~t:1);
    iis_case "iis: voting / partitions" (Proto.Iis_voting.make ~horizon:2) ~values:binary;
    sync_case "full-info / S_1" (Proto.Full_info.sync ~horizon:2) ~adversary:`S1;
    sm_case "full-info / S^rw" (Proto.Full_info.shared_memory ~horizon:2) ~values:binary;
    mp_case "full-info / S^per" (Proto.Full_info.message_passing ~horizon:2) ~values:binary;
    iis_case "full-info / partitions" (Proto.Full_info.iis ~horizon:2) ~values:binary;
    sm_case "k-set / S^rw" (Proto.Sm_kset.make ()) ~values:ternary;
    mp_case "k-set / S^per" (Proto.Mp_kset.make ~n:3) ~values:ternary;
    (* At n = 3 every k-set message is a singleton and each [seen] is
       merged once, so the order of [seen] can depend on the path only
       from n = 4; one initial state at depth 2 keeps the row quick. *)
    first_initial
      (mp_case ~n:4 "k-set / S^per, n = 4" (Proto.Mp_kset.make ~n:4) ~values:binary);
    iis_case "k-set / partitions" (Proto.Iis_kset.make ()) ~values:ternary;
    sync_case "eig / S^t" (Proto.Sync_eig.make ~t:1) ~adversary:`St;
    sync_case "coordinator / omission" (Proto.Sync_coordinator.make ~t:1) ~adversary:`Omission;
    sync_case "uniform / S^t" (Proto.Sync_uniform.make ~t:1) ~adversary:`St;
    sync_case "early / S^t" (Proto.Sync_early.make ~t:1) ~adversary:`St;
    sync_case "clean / crash" (Proto.Sync_clean.make ~t:1) ~adversary:`Crash;
  ]

let rec drop_trailing_empty = function
  | [] -> []
  | l :: rest -> (
      match drop_trailing_empty rest with [] when l = [] -> [] | rest -> l :: rest)

(* Level [d] of the reference: the keys reachable within [d] steps and
   not within [d - 1]. *)
let reference_levels ~succ ~key ~depth x0 =
  let within d =
    List.sort_uniq compare (List.map key (Layered_check.Oracle.reachable ~succ ~key ~depth:d x0))
  in
  let rec go d prev =
    if d > depth then []
    else
      let now = within d in
      List.filter (fun k -> not (List.mem k prev)) now :: go (d + 1) now
  in
  drop_trailing_empty (go 0 [])

let test_views_canonical () =
  List.iter
    (fun (Case c) ->
      List.iteri
        (fun i x0 ->
          let depth = 2 + (i mod 2) in
          let levels =
            (Layered_runtime.Frontier.levels Layered_runtime.Pool.serial ~succ:c.succ
               ~ident:c.ident ~depth x0)
              .Layered_runtime.Budget.value
          in
          let reference = reference_levels ~succ:c.succ ~key:c.key ~depth x0 in
          let what = Printf.sprintf "%s, initial state %d, depth %d" c.name i depth in
          Alcotest.(check (list int))
            (what ^ ": level sizes")
            (List.map List.length reference) (List.map List.length levels);
          Alcotest.(check (list (list string)))
            (what ^ ": level keys")
            reference
            (List.map (fun l -> List.sort compare (List.map c.key l)) levels))
        c.initials)
    (levels_cases ())

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "intern"
    [
      ( "intern",
        [
          Alcotest.test_case "dense ids" `Quick test_intern_dense_ids;
          Alcotest.test_case "rehash" `Quick test_intern_rehash;
          Alcotest.test_case "meta fields" `Quick test_intern_meta_fields;
          Alcotest.test_case "structural misses render nothing" `Quick
            test_intern_misses_render_nothing;
          Alcotest.test_case "keys rendered on demand" `Quick test_intern_keys_on_demand;
          Alcotest.test_case "adopted parts are claimed" `Quick test_intern_adopt;
          Alcotest.test_case "memo survives marshal" `Quick test_intern_memo_marshal;
          Alcotest.test_case "domain-safe" `Quick test_intern_domains;
        ] );
      ( "simgraph",
        [
          Alcotest.test_case "masked_equal" `Quick test_masked_equal;
          qt prop_sync_builders_agree;
          qt prop_smp_builders_agree;
          qt prop_engine_simgraph;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ident iff key" `Quick test_ident_iff_key;
          Alcotest.test_case "agree_modulo matches similar" `Quick
            test_agree_modulo_matches_similar;
          Alcotest.test_case "valence keying agrees" `Quick test_valence_ident_agrees;
          Alcotest.test_case "memo_layer = layer (every model row)" `Quick test_memo_layer_rows;
          qt prop_engine_identity;
        ] );
      ( "layering",
        [
          qt prop_sync_reference;
          qt prop_iis_reference;
          qt prop_smp_reference;
          qt prop_srw_reference;
          qt prop_sper_reference;
          qt prop_kernel_first_rows;
        ] );
      ( "views",
        [
          Alcotest.test_case "levels = key-deduplicated reference (every protocol)" `Quick
            test_views_canonical;
        ] );
    ]
