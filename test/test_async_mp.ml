(* Tests for the asynchronous message-passing engine (permutation
   layering) and the synchronic message-passing variant. *)

open Layered_core
module Mp = Layered_async_mp

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module P = (val Layered_protocols.Mp_floodset.make ~horizon:2)
module E = Mp.Engine.Make (P)

let initial inputs = E.initial ~inputs:(Array.of_list inputs)
let solo p = List.map (fun i -> Mp.Engine.Solo i) p

(* ------------------------------------------------------------------ *)
(* Permutations and schedules *)

let test_permutations () =
  check_int "3! permutations" 6 (List.length (Mp.Engine.permutations [ 1; 2; 3 ]));
  check_int "0! = 1" 1 (List.length (Mp.Engine.permutations []));
  check "all distinct" true
    (let ps = Mp.Engine.permutations [ 1; 2; 3 ] in
     List.length (List.sort_uniq compare ps) = List.length ps)

let test_schedules_enumeration () =
  let ss = E.schedules ~n:3 in
  (* 6 full + 6 drop-last + 6 concurrent (each pair counted once). *)
  check_int "schedule count" 18 (List.length ss);
  check "no duplicates" true (List.length (List.sort_uniq compare ss) = List.length ss)

let test_schedule_validation () =
  let x = initial [ 0; 1; 1 ] in
  Alcotest.check_raises "repeat process"
    (Invalid_argument "Engine: schedule repeats a process") (fun () ->
      ignore (E.apply x (solo [ 1; 1; 2 ])));
  Alcotest.check_raises "too few processes"
    (Invalid_argument "Engine: schedule must involve n or n-1 processes") (fun () ->
      ignore (E.apply x (solo [ 1 ])));
  Alcotest.check_raises "pair in drop-last"
    (Invalid_argument "Engine: concurrent pair only allowed in full schedules")
    (fun () -> ignore (E.apply x [ Mp.Engine.Pair (1, 2) ]));
  (* Pids outside 1..n are not among the processes a schedule may
     involve, however many it names. *)
  List.iter
    (fun s ->
      Alcotest.check_raises "pid out of range"
        (Invalid_argument "Engine: schedule must involve n or n-1 processes") (fun () ->
          ignore (E.apply x s)))
    [ solo [ 1; 2; 7 ]; solo [ 0; 1 ]; [ Mp.Engine.Pair (3, 4); Mp.Engine.Solo 1 ] ]

(* ------------------------------------------------------------------ *)
(* Phase mechanics *)

let test_solo_phase () =
  let x = initial [ 0; 1; 1 ] in
  let y = E.apply x (solo [ 1; 2; 3 ]) in
  check_int "round" 1 y.E.round;
  (* p1 moved first (2 pending), p2 second (1 pending), p3 last (0). *)
  check_int "in transit" 3 (E.in_transit y);
  check_int "mail for p1" 2 (List.length y.E.mail.(0))

let test_message_flow () =
  let x = initial [ 0; 1; 1 ] in
  (* [2;3;1]: p1 moves last, receiving both W-sets, so it knows {0,1}. *)
  let y = E.apply x (solo [ 2; 3; 1 ]) in
  let z = E.apply y (solo [ 2; 3; 1 ]) in
  (* After two full rounds everyone decided (horizon 2): the late mover
     knows the minimum. *)
  check "p1 decided 0" true ((E.decisions z).(0) = Some 0);
  check "everyone decided" true (E.terminal z);
  check "agreement on full schedules" true (Vset.cardinal (E.decided_vset z) = 1)

let test_drop_last_starves () =
  let x = initial [ 0; 1; 1 ] in
  (* Always exclude p1 (the only 0-holder): 1-valent runs. *)
  let y = E.apply (E.apply x (solo [ 2; 3 ])) (solo [ 2; 3 ]) in
  check "p2, p3 decided 1" true
    ((E.decisions y).(1) = Some 1 && (E.decisions y).(2) = Some 1);
  check "p1 undecided" true ((E.decisions y).(0) = None);
  check "not terminal" false (E.terminal y)

let test_mailbox_canonical_order () =
  let x = initial [ 0; 1; 1 ] in
  let y = E.apply x (solo [ 3; 2 ]) in
  (* Both messages to p1: mailbox sorted by source whatever the send
     order. *)
  match y.E.mail.(0) with
  | [ (s1, _); (s2, _) ] ->
      check "sorted by source" true (s1 = 2 && s2 = 3)
  | _ -> Alcotest.fail "expected two messages for p1"

let test_message_conservation () =
  let x = initial [ 0; 1; 1 ] in
  (* After a full round each process consumed its inbox and sent 2: the
     in-transit count equals messages sent after the receiver moved. *)
  let y = E.apply x (solo [ 1; 2; 3 ]) in
  (* p1: receives from nobody (moved first), gets mail from 2 and 3;
     p2: got p1's fresh message, receives mail from 3 after moving;
     p3: got both fresh messages, nothing pending. *)
  check_int "pending p1" 2 (List.length y.E.mail.(0));
  check_int "pending p2" 1 (List.length y.E.mail.(1));
  check_int "pending p3" 0 (List.length y.E.mail.(2))

(* ------------------------------------------------------------------ *)
(* The FLP diamond and pair semantics *)

let test_diamond () =
  let x = initial [ 0; 1; 1 ] in
  List.iter
    (fun p ->
      let front = List.filteri (fun i _ -> i < 2) p in
      let last = List.nth p 2 in
      let lhs = E.apply (E.apply x (solo p)) (solo front) in
      let rhs = E.apply (E.apply x (solo front)) (solo (last :: front)) in
      check "diamond equality" true (E.equal lhs rhs))
    (Mp.Engine.permutations [ 1; 2; 3 ])

let test_pair_blindness () =
  (* Three distinct inputs so that missing one message is visible in the
     value sets. *)
  let x = initial [ 0; 1; 2 ] in
  (* In [1; {2,3}] processes 2 and 3 both see p1's fresh message but not
     each other's. *)
  let y = E.apply x [ Mp.Engine.Solo 1; Mp.Engine.Pair (2, 3) ] in
  check_int "mutual messages pending" 2
    (List.length y.E.mail.(1) + List.length y.E.mail.(2));
  let seq = E.apply x (solo [ 1; 2; 3 ]) in
  (* Sequentially p3 also consumed p2's fresh message, so its state
     differs from the concurrent execution... *)
  check "pair differs from sequence at p3" false
    (String.equal (P.key y.E.locals.(2)) (P.key seq.E.locals.(2)));
  (* ...while p1 and p2 cannot tell the two schedules apart. *)
  check "p1 agrees" true (String.equal (P.key y.E.locals.(0)) (P.key seq.E.locals.(0)));
  check "p2 agrees" true (String.equal (P.key y.E.locals.(1)) (P.key seq.E.locals.(1)))

(* ------------------------------------------------------------------ *)
(* Protocol-contract guards *)

(* Deliberately broken protocols, one per guarded clause of the
   contract: a message to a pid outside the others, two messages to one
   destination, a decision that changes, a decision that is erased.  The
   layering runs each phase through the same guards as [apply]. *)
type fault = Bad_destination | Duplicate_destination | Flip_decision | Erase_decision

module Broken (F : sig
  val fault : fault
end) : Mp.Protocol.S = struct
  type local = int (* completed phases *)
  type msg = unit

  let name = "broken"
  let init ~n:_ ~pid:_ ~input:_ = 0

  let send ~n ~pid _ =
    match F.fault with
    | Bad_destination -> [ (n + 1, ()) ]
    | Duplicate_destination ->
        let d = if pid = 1 then 2 else 1 in
        [ (d, ()); (d, ()) ]
    | Flip_decision | Erase_decision -> []

  let step ~n:_ ~pid:_ phases ~inbox:_ = phases + 1

  let decision phases =
    match F.fault with
    | Flip_decision -> Some (phases mod 2)
    | Erase_decision -> if phases = 0 then Some Value.zero else None
    | Bad_destination | Duplicate_destination -> None

  let key = string_of_int
  let msg_key () = ""
  let pp = Format.pp_print_int
end

let test_contract_guards () =
  List.iter
    (fun (fault, msg) ->
      let module B = Mp.Engine.Make (Broken (struct
        let fault = fault
      end)) in
      let x = B.initial ~inputs:[| 0; 1; 1 |] in
      Alcotest.check_raises ("apply: " ^ msg) (Invalid_argument msg) (fun () ->
          ignore (B.apply x (solo [ 1; 2; 3 ])));
      Alcotest.check_raises ("sper: " ^ msg) (Invalid_argument msg) (fun () ->
          ignore (B.sper x));
      (* a layering that raises leaves nothing cached *)
      let memo = B.memo_layer B.sper in
      List.iter
        (fun call ->
          Alcotest.check_raises
            (Printf.sprintf "memo_layer sper, call %d: %s" call msg)
            (Invalid_argument msg)
            (fun () -> ignore (memo x)))
        [ 1; 2 ])
    [
      (Bad_destination, "Engine: bad message destination");
      (Duplicate_destination, "Engine: duplicate message destination");
      (Flip_decision, "Engine: protocol violated write-once decision");
      (Erase_decision, "Engine: protocol erased a decision");
    ]

(* ------------------------------------------------------------------ *)
(* Work bound *)

(* FloodSet with its [send] and [step] calls counted.  Each process takes
   at most one phase per layer and its inbox is fixed by the runners
   before it, so one [sper] call needs at most n sends and n * 2^(n-1)
   steps, however many schedules share them. *)
let sends = ref 0
let steps = ref 0

module Counted = Mp.Engine.Make (struct
  include P

  let send ~n ~pid l =
    incr sends;
    P.send ~n ~pid l

  let step ~n ~pid l ~inbox =
    incr steps;
    P.step ~n ~pid l ~inbox
end)

let test_sper_work_bound () =
  let counted x =
    let n = Counted.n_of x in
    sends := 0;
    steps := 0;
    let layer = Counted.sper x in
    check (Printf.sprintf "n = %d: %d sends" n !sends) true (!sends <= n);
    check (Printf.sprintf "n = %d: %d steps" n !steps) true (!steps <= n * (1 lsl (n - 1)));
    layer
  in
  let mixed n = Counted.initial ~inputs:(Array.init n (fun i -> if i = 0 then 0 else 1)) in
  List.iter (fun n -> ignore (counted (mixed n))) [ 3; 4; 5 ];
  (* every state of a depth-2 walk at n = 3 *)
  let level1 = counted (mixed 3) in
  List.iter (fun x -> ignore (counted x)) (List.concat_map counted level1)

(* A memoised layering expands a state once: expanding an equal state
   again, another object, runs no [send] or [step]. *)
let test_memo_layer_work () =
  let memo = Counted.memo_layer Counted.sper in
  let copy (x : Counted.state) : Counted.state = Marshal.from_string (Marshal.to_string x []) 0 in
  let x = Counted.initial ~inputs:[| 0; 1; 1 |] in
  let first = memo x in
  List.iter (fun y -> ignore (memo y)) first;
  sends := 0;
  steps := 0;
  let again = memo (copy x) in
  List.iter (fun y -> ignore (memo (copy y))) again;
  check_int "sends" 0 !sends;
  check_int "steps" 0 !steps;
  check "the first list" true (again == first)

(* [sper] interns nothing, so a sweep interns exactly the states it
   reaches: its last level's layers are counted, never interned. *)
let test_sper_interns_nothing () =
  let x = initial [ 0; 1; 1 ] in
  ignore (E.ident x);
  let before = Intern.size E.intern_table in
  ignore (E.sper x);
  check_int "sper x adds no identity" before (Intern.size E.intern_table);
  List.iter
    (fun (n, t, depth, reachable) ->
      let what = Printf.sprintf "mp (%d,%d) depth %d" n t depth in
      let before = Layered_runtime.Stats.snapshot () in
      let s = Layered_analysis.Sweep.run ~model:"mp" ~n ~t ~depth () in
      let delta = Layered_runtime.Stats.diff (Layered_runtime.Stats.snapshot ()) before in
      check_int (what ^ ": reachable") reachable
        (List.fold_left (fun _ l -> l.Layered_analysis.Sweep.reachable) 0 s.levels);
      check_int (what ^ ": interned") reachable delta.interned_states)
    [ (3, 2, 5, 2064); (4, 1, 3, 5362) ]

(* ------------------------------------------------------------------ *)
(* Properties *)

let schedule_arb =
  QCheck.make
    (QCheck.Gen.oneofl (E.schedules ~n:3))

let runs_arb =
  QCheck.make
    QCheck.Gen.(
      pair (list_repeat 3 (int_bound 1))
        (list_size (int_range 0 3) (oneofl (E.schedules ~n:3))))

let prop_sper_layer_deduped =
  QCheck.Test.make ~name:"mp: sper layers deduplicated" ~count:40 runs_arb
    (fun (inputs, schedules) ->
      let x = List.fold_left E.apply (initial inputs) schedules in
      let layer = E.sper x in
      List.length (List.sort_uniq compare (List.map E.key layer)) = List.length layer)

let prop_validity =
  QCheck.Test.make ~name:"mp: decisions are input values" ~count:100 runs_arb
    (fun (inputs, schedules) ->
      let x = List.fold_left E.apply (initial inputs) schedules in
      Vset.subset (E.decided_vset x) (Vset.of_list inputs))

let prop_mail_sorted_invariant =
  QCheck.Test.make ~name:"mp: mailboxes stay source-sorted" ~count:100 runs_arb
    (fun (inputs, schedules) ->
      let x = List.fold_left E.apply (initial inputs) schedules in
      Array.for_all
        (fun box ->
          let srcs = List.map fst box in
          List.sort compare srcs = srcs)
        x.E.mail)

let prop_diamond_general =
  QCheck.Test.make ~name:"mp: diamond holds from random states" ~count:60
    (QCheck.pair runs_arb (QCheck.make (QCheck.Gen.oneofl (Mp.Engine.permutations [ 1; 2; 3 ]))))
    (fun ((inputs, schedules), p) ->
      let x = List.fold_left E.apply (initial inputs) schedules in
      let front = List.filteri (fun i _ -> i < 2) p in
      let last = List.nth p 2 in
      let lhs = E.apply (E.apply x (solo p)) (solo front) in
      let rhs = E.apply (E.apply x (solo front)) (solo (last :: front)) in
      E.equal lhs rhs)

(* ------------------------------------------------------------------ *)
(* Synchronic message-passing variant *)

module PS = (val Layered_protocols.Sync_floodset.make ~t:1)
module ES = Mp.Synchronic.Make (PS)

let s_initial inputs = ES.initial ~inputs:(Array.of_list inputs)
let s_act slow mode = { Mp.Synchronic.slow; mode }

let test_synchronic_clean_round () =
  let x = s_initial [ 0; 1; 1 ] in
  let y = ES.apply x (s_act 1 (Mp.Synchronic.Late 0)) in
  check_int "round" 1 y.ES.round;
  check_int "all delivered" 0 (ES.in_transit y);
  let z = ES.apply y (s_act 1 (Mp.Synchronic.Late 0)) in
  check "decided min" true (Vset.equal (ES.decided_vset z) (Vset.singleton 0))

let test_synchronic_absent () =
  let x = s_initial [ 0; 1; 1 ] in
  let y = ES.apply x (s_act 1 Mp.Synchronic.Absent) in
  (* p1 did not send or receive; p2 and p3 exchanged their messages, and
     their messages to p1 stay in transit. *)
  check "p1 local unchanged" true
    (String.equal (PS.key y.ES.locals.(0)) (PS.key x.ES.locals.(0)));
  check_int "two messages await p1" 2 (ES.in_transit y);
  check "all pending addressed to p1" true
    (List.for_all (fun p -> p.ES.dst = 1) y.ES.transit)

let test_synchronic_late_delivery () =
  let x = s_initial [ 0; 1; 1 ] in
  (* (1, 3): everyone sends; proper processes 2, 3 (both <= 3) miss p1's
     fresh message, which stays in transit... *)
  let y = ES.apply x (s_act 1 (Mp.Synchronic.Late 3)) in
  check_int "p1's two messages pending" 2 (ES.in_transit y);
  check "pending sent at round 1" true (List.for_all (fun p -> p.ES.sent = 1) y.ES.transit);
  (* ...and is delivered in the next round (FIFO: p1's fresh round-2
     messages queue behind and remain). *)
  let z = ES.apply y (s_act 1 (Mp.Synchronic.Late 0)) in
  check "round-1 messages all delivered" true
    (List.for_all (fun p -> p.ES.sent = 2) z.ES.transit)

(* An out-of-range slow process or late count is refused, never run as
   some other round. *)
let test_synchronic_rejects () =
  let x = s_initial [ 0; 1; 1 ] in
  let rejects msg a =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (ES.apply x a))
  in
  List.iter
    (fun j ->
      rejects "Synchronic.apply: bad slow process" (s_act j Mp.Synchronic.Absent);
      rejects "Synchronic.apply: bad slow process" (s_act j (Mp.Synchronic.Late 1)))
    [ 0; 4; 7 ];
  List.iter
    (fun k -> rejects "Synchronic.apply: bad late count" (s_act 1 (Mp.Synchronic.Late k)))
    [ -1; 4; 9 ]

let test_synchronic_bridge () =
  (* The Lemma 5.3 bridge transfers: x(j,n)(j,A) agrees with
     x(j,A)(j,0) modulo j, given round-oblivious message content. *)
  List.iter
    (fun inputs ->
      let x = s_initial inputs in
      List.iter
        (fun j ->
          let y =
            ES.apply
              (ES.apply x (s_act j (Mp.Synchronic.Late 3)))
              (s_act j Mp.Synchronic.Absent)
          in
          let y' =
            ES.apply
              (ES.apply x (s_act j Mp.Synchronic.Absent))
              (s_act j (Mp.Synchronic.Late 0))
          in
          check "synchronic bridge" true (ES.agree_modulo y y' j))
        [ 1; 2; 3 ])
    [ [ 0; 1; 1 ]; [ 0; 0; 1 ]; [ 1; 0; 1 ] ]

(* A layer's shared protocol work: [smp] runs each [P.send] at most
   once per (sender, receiver), and each [P.step] at most once per
   (receiver, missed sender).  A receiver's steps differ only in the one
   sender whose fresh packet it misses, or none, so they see distinct
   sets of senders and number at most [n]. *)
let smp_steps = Array.make 8 0

module CountedS = Mp.Synchronic.Make (struct
  include PS

  let send ~n ~round ~pid l ~dest =
    Calls.once (Printf.sprintf "send %d->%d" pid dest);
    PS.send ~n ~round ~pid l ~dest

  let step ~n ~round ~pid l ~received =
    Calls.once (Printf.sprintf "step %d of %d" pid (Calls.mask received));
    smp_steps.(pid - 1) <- smp_steps.(pid - 1) + 1;
    PS.step ~n ~round ~pid l ~received
end)

let test_smp_work_bound () =
  Calls.check
    (fun x ->
      let n = CountedS.n_of x in
      Array.fill smp_steps 0 (Array.length smp_steps) 0;
      let layer = CountedS.smp x in
      Array.iteri
        (fun r k -> if k > n then Alcotest.failf "%d steps of process %d" k (r + 1))
        smp_steps;
      layer)
    (fun n -> CountedS.initial ~inputs:(Array.init n (fun i -> if i = 0 then 0 else 1)))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  ignore schedule_arb;
  Alcotest.run "layered_async_mp"
    [
      ( "schedules",
        [
          Alcotest.test_case "permutations" `Quick test_permutations;
          Alcotest.test_case "enumeration" `Quick test_schedules_enumeration;
          Alcotest.test_case "validation" `Quick test_schedule_validation;
        ] );
      ( "phases",
        [
          Alcotest.test_case "solo" `Quick test_solo_phase;
          Alcotest.test_case "message flow" `Quick test_message_flow;
          Alcotest.test_case "drop-last starves" `Quick test_drop_last_starves;
          Alcotest.test_case "mailbox order" `Quick test_mailbox_canonical_order;
          Alcotest.test_case "conservation" `Quick test_message_conservation;
          Alcotest.test_case "contract guards" `Quick test_contract_guards;
          Alcotest.test_case "sper work bound" `Quick test_sper_work_bound;
          Alcotest.test_case "memo layer work" `Quick test_memo_layer_work;
          Alcotest.test_case "sper interns nothing" `Quick test_sper_interns_nothing;
        ] );
      ( "diamond",
        [
          Alcotest.test_case "state equality" `Quick test_diamond;
          Alcotest.test_case "pair blindness" `Quick test_pair_blindness;
        ] );
      ( "properties",
        [
          qt prop_sper_layer_deduped;
          qt prop_validity;
          qt prop_mail_sorted_invariant;
          qt prop_diamond_general;
        ] );
      ( "synchronic",
        [
          Alcotest.test_case "clean round" `Quick test_synchronic_clean_round;
          Alcotest.test_case "absent" `Quick test_synchronic_absent;
          Alcotest.test_case "late delivery" `Quick test_synchronic_late_delivery;
          Alcotest.test_case "rejects bad actions" `Quick test_synchronic_rejects;
          Alcotest.test_case "bridge" `Quick test_synchronic_bridge;
          Alcotest.test_case "smp work bound" `Quick test_smp_work_bound;
        ] );
    ]
