(* Tests for the synchronous round engine, its layerings and the
   adversary enumeration. *)

open Layered_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module P = (val Layered_protocols.Sync_floodset.make ~t:1)
module E = Layered_sync.Engine.Make (P)

let initial inputs = E.initial ~inputs:(Array.of_list inputs)

(* ------------------------------------------------------------------ *)
(* Round mechanics *)

let test_initial () =
  let x = initial [ 0; 1; 1 ] in
  check_int "round" 0 x.E.round;
  check_int "n" 3 (E.n_of x);
  check_int "no failures" 0 (E.failed_count x);
  check "not terminal" false (E.terminal x);
  check "no decisions" true (Vset.is_empty (E.decided_vset x))

let test_initial_states_order () =
  let states = E.initial_states ~n:3 ~values:[ 0; 1 ] in
  check_int "2^3 states" 8 (List.length states);
  (* First is all-zeros, last all-ones: decided values after flooding. *)
  let first = List.hd states and last = List.nth states 7 in
  let ff x = E.apply E.Crash x (E.omit []) in
  check "all-zero decides 0" true
    (Vset.equal (E.decided_vset (ff (ff first))) (Vset.singleton 0));
  check "all-one decides 1" true
    (Vset.equal (E.decided_vset (ff (ff last))) (Vset.singleton 1))

let test_failure_free_round () =
  let x = initial [ 0; 1; 1 ] in
  let y = E.apply E.Crash x (E.omit []) in
  check_int "round advanced" 1 y.E.round;
  check_int "still no failures" 0 (E.failed_count y);
  (* After one clean round everyone knows all inputs; decision at t+1=2. *)
  let z = E.apply E.Crash y (E.omit []) in
  check "decided" true (E.terminal z);
  check "decides min = 0" true (Vset.equal (E.decided_vset z) (Vset.singleton 0))

let test_omission_records_failure () =
  let x = initial [ 0; 1; 1 ] in
  let y = E.apply E.Crash x (E.omit [ { E.sender = 1; blocked = [ 2; 3 ] } ]) in
  check_int "one failed" 1 (E.failed_count y);
  Alcotest.(check (list int)) "nonfailed" [ 2; 3 ] (E.nonfailed y);
  (* Nobody saw p1's 0: the silenced run decides 1. *)
  let z = E.apply E.Crash y (E.omit []) in
  check "value 0 suppressed" true (Vset.equal (E.decided_vset z) (Vset.singleton 1))

let test_mobile_mode_never_records () =
  let x = initial [ 0; 1; 1 ] in
  let y = E.apply E.Mobile x (E.omit [ { E.sender = 1; blocked = [ 2; 3 ] } ]) in
  check_int "no failure recorded" 0 (E.failed_count y);
  (* p1 keeps sending in later rounds: 0 resurfaces. *)
  let z = E.apply E.Mobile y (E.omit []) in
  check "0 reaches everyone eventually" true
    (Vset.equal (E.decided_vset z) (Vset.singleton 0))

let test_silenced_forever () =
  let x = initial [ 0; 1; 1 ] in
  (* Declaration-only crash: recorded failed, nothing lost this round. *)
  let y = E.apply E.Crash x (E.omit [ { E.sender = 1; blocked = [] } ]) in
  check_int "declared failed" 1 (E.failed_count y);
  (* p1's round-1 messages were delivered, so 0 is known and decided. *)
  let z = E.apply E.Crash y (E.omit []) in
  check "0 was delivered before the declaration" true
    (Vset.equal (E.decided_vset z) (Vset.singleton 0))

let test_duplicate_omitters_rejected () =
  let x = initial [ 0; 1; 1 ] in
  Alcotest.check_raises "duplicate senders"
    (Invalid_argument "Engine.apply: duplicate omitters") (fun () ->
      ignore
        (E.apply E.Crash x
           (E.omit [ { E.sender = 1; blocked = [ 2 ] }; { E.sender = 1; blocked = [ 3 ] } ])))

(* Every pid an action names is range-checked, blocked receivers
   included: none reaches an array index unchecked. *)
let test_bad_pids_rejected () =
  let x = initial [ 0; 1; 1 ] in
  let bad disc action =
    Alcotest.check_raises "bad pid" (Invalid_argument "Engine.apply: bad pid") (fun () ->
        ignore (E.apply disc x action))
  in
  List.iter
    (fun d ->
      bad E.Crash (E.omit [ { E.sender = 1; blocked = [ d ] } ]);
      bad E.Mobile (E.omit [ { E.sender = 1; blocked = [ d ] } ]);
      bad E.Omission (E.omit [ { E.sender = 1; blocked = [ d ] } ]);
      bad E.Omission { E.marks = [ 1 ]; drops = [ { E.sender = d; blocked = [ 2 ] } ] })
    [ 0; 4 ];
  bad E.Crash (E.omit [ { E.sender = 4; blocked = [] } ]);
  bad E.Omission { E.marks = [ 0 ]; drops = [] }

let test_jk_prefix () =
  let x = initial [ 0; 1; 1 ] in
  (* x (j, [k]): one omission by j to the prefix {1, ..., k}. *)
  let jk j k =
    let blocked = List.filter (fun d -> d <= k) [ 1; 2; 3 ] in
    E.apply E.Mobile x (E.omit [ { E.sender = j; blocked } ])
  in
  (* (j, [0]) is the failure-free round in mobile mode. *)
  let y = jk 1 0 in
  check "k=0 is clean" true (E.equal y (E.apply E.Mobile x (E.omit [])));
  (* (j, [n]) silences j this round. *)
  let z = jk 1 3 in
  check "blocked round differs" false (E.equal z y)

(* ------------------------------------------------------------------ *)
(* Similarity *)

let test_agree_modulo () =
  let x = initial [ 0; 1; 1 ] in
  let y = initial [ 0; 0; 1 ] in
  check "differ at p2" true (E.agree_modulo x y 2);
  check "not modulo p3" false (E.agree_modulo x y 3);
  check "similar" true (E.similar x y);
  let z = initial [ 1; 0; 1 ] in
  check "two diffs not similar" false (E.similar x z);
  check "self similar" true (E.similar x x)

let test_similarity_ignores_js_failure_flag () =
  let x = initial [ 0; 1; 1 ] in
  let clean = E.apply E.Crash x (E.omit []) in
  let declared = E.apply E.Crash x (E.omit [ { E.sender = 1; blocked = [] } ]) in
  (* Locals all equal; only p1's failure record differs. *)
  check "agree modulo the declared process" true (E.agree_modulo clean declared 1);
  check "similar" true (E.similar clean declared)

(* ------------------------------------------------------------------ *)
(* Layerings *)

let test_s1_layer () =
  let x = initial [ 0; 1; 1 ] in
  let layer = E.layer E.s1 x in
  (* n(n+1) actions with heavy aliasing: all (j,[0]) coincide, and
     self-only prefixes duplicate. *)
  check "contains clean round" true
    (List.exists (fun y -> E.equal y (E.apply E.Mobile x (E.omit []))) layer);
  check "dedup" true
    (List.length (List.sort_uniq compare (List.map E.key layer)) = List.length layer);
  check "all at round 1" true (List.for_all (fun y -> y.E.round = 1) layer)

let test_st_layer_structure () =
  let x = initial [ 0; 1; 1 ] in
  let layer = E.layer (E.st ~t:1) x in
  check "includes declaration states" true
    (List.exists
       (fun y ->
         E.failed_count y = 1
         && E.equal y (E.apply E.Crash x (E.omit [ { E.sender = 2; blocked = [] } ])))
       layer);
  check "at most one new failure" true (List.for_all (fun y -> E.failed_count y <= 1) layer);
  (* Once t processes failed: only the failure-free successor. *)
  let crashed = E.apply E.Crash x (E.omit [ { E.sender = 1; blocked = [ 2; 3 ] } ]) in
  check_int "exhausted budget: singleton layer" 1 (List.length (E.layer (E.st ~t:1) crashed));
  check "layer similarity connected" true
    (Connectivity.connected ~rel:E.similar layer)

let test_s_multi () =
  let x = initial [ 0; 1; 1 ] in
  let single = List.sort_uniq compare (List.map E.key (E.layer E.s1 x)) in
  let multi1 = List.sort_uniq compare (List.map E.key (E.layer (E.s_multi ~omitters:1) x)) in
  let multi2 = List.sort_uniq compare (List.map E.key (E.layer (E.s_multi ~omitters:2) x)) in
  check "one omitter coincides with S1" true (single = multi1);
  check "monotone in the omitter budget" true
    (List.for_all (fun k -> List.mem k multi2) multi1);
  check "two omitters reach more" true (List.length multi2 > List.length multi1);
  (* A two-omitter round can silence two senders simultaneously. *)
  let both_silenced =
    E.apply E.Mobile x
      (E.omit [ { E.sender = 2; blocked = [ 1; 3 ] }; { E.sender = 3; blocked = [ 1; 2 ] } ])
  in
  check "double silencing reachable" true
    (List.exists (fun y -> E.equal y both_silenced) (E.layer (E.s_multi ~omitters:2) x))

(* Each memoised layering has its own table: one shared by the engine
   would hand [s_multi] the [s1] layer it computed first. *)
let test_memo_per_layering () =
  let single = E.memo_layer (E.layer E.s1)
  and multi = E.memo_layer (E.layer (E.s_multi ~omitters:2)) in
  let x = initial [ 0; 0; 1 ] in
  let ids succ = List.map E.ident (succ x) in
  check_int "s1" 3 (List.length (single x));
  check_int "s_multi 2" 4 (List.length (multi x));
  Alcotest.(check (list int)) "s1 again" (ids (E.layer E.s1)) (ids single);
  Alcotest.(check (list int)) "s_multi 2 again" (ids (E.layer (E.s_multi ~omitters:2))) (ids multi)

(* A layer's shared protocol work: each [Q.send] runs at most once per
   (sender, receiver) and never for a sender crashed at the state, and
   each [Q.step] at most once per (receiver, senders whose message
   arrives).  Floodset sends every message; the coordinator's king
   round (the walk's third) sends only the king's, so there many
   receivers' labels share one set of arriving senders. *)
let crashed = ref [||]

module Work_bound (Q : Layered_sync.Protocol.S) = struct
  module Counted = Layered_sync.Engine.Make (struct
    include Q

    let send ~n ~round ~pid l ~dest =
      if !crashed.(pid - 1) then Alcotest.failf "send by crashed %d" pid;
      Calls.once (Printf.sprintf "send %d->%d" pid dest);
      Q.send ~n ~round ~pid l ~dest

    let step ~n ~round ~pid l ~received =
      Calls.once (Printf.sprintf "step %d of %d" pid (Calls.mask received));
      Q.step ~n ~round ~pid l ~received
  end)

  let check () =
    let mixed n = Counted.initial ~inputs:(Array.init n (fun i -> if i = 0 then 0 else 1)) in
    List.iter
      (fun adv ->
        Calls.check
          (fun x ->
            crashed := x.Counted.failed;
            Counted.layer adv x)
          mixed)
      [ Counted.s1; Counted.st ~t:1; Counted.st ~t:2 ]
end

let test_layer_work_bound () =
  let module Flood = Work_bound (P) in
  let module King = Work_bound ((val Layered_protocols.Sync_coordinator.make ~t:1)) in
  Flood.check ();
  King.check ()

let test_st_layers_are_legal () =
  (* Every S^t successor is one legal round of the crash model. *)
  let x = initial [ 0; 1; 1 ] in
  let micro y = List.map (E.apply E.Crash y) (E.actions_at (E.crash ~max_new:1 ~t:1) y) in
  let violations =
    Layering.validate ~micro ~ident:E.ident ~bound:1 ~states:[ x ] (E.layer (E.st ~t:1))
  in
  check "no violations" true (violations = [])

(* ------------------------------------------------------------------ *)
(* Adversary enumeration *)

let crash_actions ~max_new ~t x = E.actions_at (E.crash ~max_new ~t) x

let test_crash_action_counts () =
  let x = initial [ 0; 1; 1 ] in
  (* max_new 1: failure-free + 3 senders x 2^2 blocked subsets. *)
  check_int "single-crash actions" (1 + (3 * 4))
    (List.length (crash_actions ~max_new:1 ~t:1 x));
  (* Budget exhausted: only the failure-free action. *)
  check_int "no budget" 1 (List.length (crash_actions ~max_new:2 ~t:0 x));
  (* Two simultaneous crashes: add C(3,2) pairs x 4 x 4 subsets. *)
  check_int "double-crash actions"
    (1 + (3 * 4) + (3 * 16))
    (List.length (crash_actions ~max_new:2 ~t:2 x))

let test_crash_actions_exclude_failed () =
  let x = initial [ 0; 1; 1 ] in
  let y = E.apply E.Crash x (E.omit [ { E.sender = 1; blocked = [ 2 ] } ]) in
  let actions = crash_actions ~max_new:1 ~t:2 y in
  check "failed process not a fresh omitter" true
    (List.for_all (fun a -> not (List.mem 1 a.E.marks)) actions)

(* A negative per-round budget would lift the bound on fresh failures
   (crash) or silently allow none (omission): both constructors refuse
   it. *)
let test_negative_max_new () =
  Alcotest.check_raises "crash" (Invalid_argument "Engine.crash: negative max_new")
    (fun () -> ignore (E.crash ~max_new:(-1) ~t:1));
  Alcotest.check_raises "omission" (Invalid_argument "Engine.omission: negative max_new")
    (fun () -> ignore (E.omission ~general:false ~max_new:(-1) ~t:1))

(* ------------------------------------------------------------------ *)
(* Send-omission model *)

let drop sender blocked = { E.marks = []; drops = [ { E.sender; blocked } ] }
let mark j = { E.marks = [ j ]; drops = [] }

let test_omission_basics () =
  let x = initial [ 0; 1; 1 ] in
  check_int "nobody faulty" 0 (E.failed_count x);
  (* Corrupt p1, drop nothing: everything still flows. *)
  let y = E.apply E.Omission x (mark 1) in
  check_int "one faulty" 1 (E.failed_count y);
  Alcotest.(check (list int)) "nonfaulty" [ 2; 3 ] (E.nonfailed y);
  let z = E.apply E.Omission y (E.omit []) in
  (* FloodSet with undropped messages decides the true minimum. *)
  check "harmless fault decides 0" true (Vset.equal (E.decided_vset z) (Vset.singleton 0))

let test_omission_faulty_keeps_talking () =
  let x = initial [ 0; 1; 1 ] in
  (* p1 drops everything in round 1 but resumes in round 2 — impossible
     in the crash model, allowed here. *)
  let y = E.apply E.Omission x (E.omit [ { E.sender = 1; blocked = [ 2; 3 ] } ]) in
  let z = E.apply E.Omission y (E.omit []) in
  check "value 0 resurfaces" true (Vset.mem 0 (E.decided_vset z))

let test_omission_validation () =
  let x = initial [ 0; 1; 1 ] in
  Alcotest.check_raises "drop by non-faulty"
    (Invalid_argument "Engine.apply: drop between non-faulty processes") (fun () ->
      ignore (E.apply E.Omission x (drop 1 [ 2 ])));
  let y = E.apply E.Omission x (mark 1) in
  Alcotest.check_raises "double corruption"
    (Invalid_argument "Engine.apply: already faulty") (fun () ->
      ignore (E.apply E.Omission y (mark 1)))

let test_omission_contains_crash () =
  (* A crash run (silence from the first drop on) is an omission run:
     both disciplines reach the same non-faulty decisions. *)
  let x = initial [ 0; 1; 1 ] in
  let first = E.omit [ { E.sender = 1; blocked = [ 2; 3 ] } ] in
  let crash = E.decided_vset (E.apply E.Crash (E.apply E.Crash x first) (E.omit [])) in
  let omission =
    E.decided_vset (E.apply E.Omission (E.apply E.Omission x first) (drop 1 [ 2; 3 ]))
  in
  check "same decisions" true (Vset.equal crash omission)

let test_omission_action_counts () =
  let x = initial [ 0; 1; 1 ] in
  let actions x = E.actions_at (E.omission ~general:false ~max_new:1 ~t:1) x in
  (* No faulty process yet, budget 1: no-corruption (1 action: nothing to
     drop) + 3 single corruptions x 4 drop subsets. *)
  check_int "fresh actions" (1 + (3 * 4)) (List.length (actions x));
  let y = E.apply E.Omission x (mark 1) in
  (* Budget spent: drops for the one faulty process only. *)
  check_int "spent budget" 4 (List.length (actions y))

(* Random omission-adversary runs, replayed as legal action sequences:
   corrupt the requested process while the budget lasts, keep only drops
   by currently-faulty senders. *)
let omission_run_arb =
  QCheck.make
    QCheck.Gen.(
      pair (list_repeat 3 (int_bound 1))
        (list_size (int_range 0 4)
           (pair bool (list_size (int_bound 2) (pair (int_range 1 3) (int_range 1 3))))))

let omission_replay (inputs, raw) =
  List.fold_left
    (fun (x, budget) (want_corrupt, drop_pairs) ->
      let marks =
        if want_corrupt && budget > 0 then
          match List.filter (fun j -> not x.E.failed.(j - 1)) [ 1; 2; 3 ] with
          | j :: _ -> [ j ]
          | [] -> []
        else []
      in
      let faulty_after j = x.E.failed.(j - 1) || List.mem j marks in
      let drops =
        List.filter_map
          (fun (s, d) ->
            if faulty_after s && s <> d then Some { E.sender = s; blocked = [ d ] } else None)
          drop_pairs
      in
      (E.apply E.Omission x { E.marks; drops }, budget - List.length marks))
    (initial inputs, 1)
    raw
  |> fst

let prop_omission_budget =
  QCheck.Test.make ~name:"omission: at most t processes ever faulty" ~count:200
    omission_run_arb (fun run -> E.failed_count (omission_replay run) <= 1)

let prop_omission_validity =
  QCheck.Test.make ~name:"omission: floodset decisions are inputs" ~count:200
    omission_run_arb (fun ((inputs, _) as run) ->
      Vset.subset (E.decided_vset (omission_replay run)) (Vset.of_list inputs))

let prop_omission_deterministic =
  QCheck.Test.make ~name:"omission: replay is deterministic" ~count:100 omission_run_arb
    (fun run -> String.equal (E.key (omission_replay run)) (E.key (omission_replay run)))

(* ------------------------------------------------------------------ *)
(* qcheck properties over random adversary runs *)

let inputs_gen n = QCheck.Gen.(list_repeat n (int_bound 1))

let action_gen n =
  QCheck.Gen.(
    let omission =
      pair (int_range 1 n) (list_size (int_bound n) (int_range 1 n))
      |> map (fun (sender, blocked) -> { E.sender; blocked })
    in
    frequency [ (1, return (E.omit [])); (3, map (fun o -> E.omit [ o ]) omission) ])

let run_gen =
  QCheck.Gen.(
    pair (inputs_gen 3) (list_size (int_range 0 4) (action_gen 3)))

let run_arb = QCheck.make run_gen

let prop_round_counts =
  QCheck.Test.make ~name:"sync: rounds count applied actions" ~count:200 run_arb
    (fun (inputs, actions) ->
      let x =
        List.fold_left
          (fun x a -> E.apply E.Crash x a)
          (initial inputs) actions
      in
      x.E.round = List.length actions)

let prop_failures_monotone =
  QCheck.Test.make ~name:"sync: failure record grows monotonically" ~count:200 run_arb
    (fun (inputs, actions) ->
      let counts =
        List.fold_left
          (fun (x, acc) a ->
            let y = E.apply E.Crash x a in
            (y, E.failed_count y :: acc))
          (initial inputs, [ 0 ])
          actions
        |> snd |> List.rev
      in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | [ _ ] | [] -> true
      in
      sorted counts)

let prop_decisions_write_once =
  QCheck.Test.make ~name:"sync: decisions are write-once along runs" ~count:200 run_arb
    (fun (inputs, actions) ->
      let ok = ref true in
      let final =
        List.fold_left
          (fun x a ->
            let y = E.apply E.Crash x a in
            let dx = E.decisions x and dy = E.decisions y in
            Array.iteri
              (fun i d ->
                match (d, dy.(i)) with
                | Some v, Some w when v <> w -> ok := false
                | Some _, None -> ok := false
                | (Some _ | None), _ -> ())
              dx;
            y)
          (initial inputs) actions
      in
      ignore final;
      !ok)

let prop_key_deterministic =
  QCheck.Test.make ~name:"sync: apply is deterministic (key-stable)" ~count:100 run_arb
    (fun (inputs, actions) ->
      let run () =
        List.fold_left
          (fun x a -> E.apply E.Crash x a)
          (initial inputs) actions
        |> E.key
      in
      String.equal (run ()) (run ()))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "layered_sync"
    [
      ( "rounds",
        [
          Alcotest.test_case "initial" `Quick test_initial;
          Alcotest.test_case "initial states order" `Quick test_initial_states_order;
          Alcotest.test_case "failure-free" `Quick test_failure_free_round;
          Alcotest.test_case "omission records" `Quick test_omission_records_failure;
          Alcotest.test_case "mobile never records" `Quick test_mobile_mode_never_records;
          Alcotest.test_case "declaration crash" `Quick test_silenced_forever;
          Alcotest.test_case "duplicate omitters" `Quick test_duplicate_omitters_rejected;
          Alcotest.test_case "bad pids" `Quick test_bad_pids_rejected;
          Alcotest.test_case "(j,[k]) prefixes" `Quick test_jk_prefix;
        ] );
      ( "similarity",
        [
          Alcotest.test_case "agree modulo" `Quick test_agree_modulo;
          Alcotest.test_case "failure flag refinement" `Quick
            test_similarity_ignores_js_failure_flag;
        ] );
      ( "layerings",
        [
          Alcotest.test_case "S1 layer" `Quick test_s1_layer;
          Alcotest.test_case "S^t structure" `Quick test_st_layer_structure;
          Alcotest.test_case "multi-omitter layer" `Quick test_s_multi;
          Alcotest.test_case "one memo per layering" `Quick test_memo_per_layering;
          Alcotest.test_case "layer work bound" `Quick test_layer_work_bound;
          Alcotest.test_case "S^t legality" `Quick test_st_layers_are_legal;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "action counts" `Quick test_crash_action_counts;
          Alcotest.test_case "failed excluded" `Quick test_crash_actions_exclude_failed;
          Alcotest.test_case "negative max_new" `Quick test_negative_max_new;
        ] );
      ( "omission",
        [
          Alcotest.test_case "basics" `Quick test_omission_basics;
          Alcotest.test_case "faulty keeps talking" `Quick test_omission_faulty_keeps_talking;
          Alcotest.test_case "validation" `Quick test_omission_validation;
          Alcotest.test_case "contains crash" `Quick test_omission_contains_crash;
          Alcotest.test_case "action counts" `Quick test_omission_action_counts;
        ] );
      ( "properties",
        [
          qt prop_omission_budget;
          qt prop_omission_validity;
          qt prop_omission_deterministic;
          qt prop_round_counts;
          qt prop_failures_monotone;
          qt prop_decisions_write_once;
          qt prop_key_deterministic;
        ] );
    ]
