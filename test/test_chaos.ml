(* Tests for the fault injector, the differential oracles, and the chaos
   harness: determinism of the injector, a clean (disarmed) oracle
   suite, and full detection across one round of the pairing matrix. *)

open Layered_core
open Layered_check
module Fault = Layered_runtime.Fault

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Injector *)

let test_disarmed_noop () =
  Fault.disarm ();
  check "no site armed" true (Fault.armed () = None);
  for _ = 1 to 100 do
    List.iter (fun s -> check "disarmed point never fires" false (Fault.point s)) Fault.all
  done;
  Alcotest.(check (list int))
    "disarmed mangle_level is the identity" [ 1; 2; 3 ]
    (Fault.mangle_level [ 1; 2; 3 ])

(* Arming with the same seed fires at the same visit; the fault fires
   exactly once however many visits follow. *)
let test_arm_deterministic () =
  let firing_index seed =
    Fault.arm ~seed Fault.Drop_successor;
    Fun.protect ~finally:Fault.disarm (fun () ->
        let fired_at = ref (-1) in
        for i = 0 to 9 do
          if Fault.point Fault.Drop_successor then fired_at := i
        done;
        check_int "exactly one firing" 1 (Fault.fired ());
        check_int "every visit was counted" 10 (Fault.hits ());
        check "fired within the first three visits" true
          (!fired_at >= 0 && !fired_at < 3);
        !fired_at)
  in
  List.iter
    (fun seed ->
      check_int
        (Printf.sprintf "seed %d fires at the same visit on re-arm" seed)
        (firing_index seed) (firing_index seed))
    [ 0; 1; 42; 1_000_003 ]

let test_site_names_roundtrip () =
  List.iter
    (fun s ->
      match Fault.site_of_name (Fault.site_name s) with
      | Some s' -> check (Fault.site_name s ^ " roundtrips") true (s = s')
      | None -> Alcotest.fail ("site_of_name failed for " ^ Fault.site_name s))
    Fault.all;
  check "unknown name rejected" true (Fault.site_of_name "no_such_site" = None)

(* Visits to sites other than the armed one are not counted and never
   fire. *)
let test_only_armed_site_counts () =
  Fault.arm ~seed:5 Fault.Worker_raise;
  Fun.protect ~finally:Fault.disarm (fun () ->
      for _ = 1 to 10 do
        check "unarmed site never fires" false (Fault.point Fault.Drop_successor)
      done;
      check_int "unarmed visits not counted" 0 (Fault.hits ()))

(* ------------------------------------------------------------------ *)
(* Oracles *)

let test_oracles_clean () =
  Fault.disarm ();
  let rows = Chaos.rows ~jobs:2 () in
  check_int "one row per oracle" (List.length Chaos.oracles) (List.length rows);
  List.iter
    (fun (r : Report.row) ->
      check (r.Report.claim ^ " passes disarmed") true (r.Report.status = Report.Pass))
    rows;
  Golden.check (Golden.oracles rows)

let test_pairings_resolve () =
  List.iter
    (fun (site, oracles) ->
      check
        (Fault.site_name site ^ " has at least three detectors")
        true
        (List.length oracles >= 3);
      List.iter
        (fun name ->
          check (name ^ " exists") true (Chaos.find name <> None))
        oracles)
    Chaos.pairings;
  check_int "every site is paired" (List.length Fault.all) (List.length Chaos.pairings)

(* ------------------------------------------------------------------ *)
(* Harness: one full round of the matrix detects everything. *)

let test_chaos_full_round () =
  let pairs =
    List.fold_left (fun n (_, os) -> n + List.length os) 0 Chaos.pairings
  in
  let r = Chaos.run ~jobs:2 ~seed:42 ~trials:pairs () in
  check "full detection with clean controls" true (Chaos.ok r);
  List.iter
    (fun (c : Chaos.cell) ->
      check_int
        (Printf.sprintf "%s x %s armed once" (Fault.site_name c.Chaos.site)
           c.Chaos.oracle)
        1 c.Chaos.armed_trials;
      check_int "detected" 1 c.Chaos.detected;
      check_int "exercised" 0 c.Chaos.unexercised;
      check_int "controls clean" 0 c.Chaos.control_failures)
    r.Chaos.cells;
  check "injector left disarmed" true (Fault.armed () = None);
  Golden.check (Golden.chaos r)

(* A restricted site selection shrinks the matrix accordingly. *)
let test_chaos_site_filter () =
  let r =
    Chaos.run ~jobs:2 ~seed:1 ~trials:3 ~sites:[ Fault.Flip_valence_bit ] ()
  in
  check_int "three cells" 3 (List.length r.Chaos.cells);
  check "all detected" true (Chaos.ok r)

(* Without [~trials], a run arms every cell of the selected sites once:
   the default is read off the pairing table, not kept by hand. *)
let test_chaos_default_trials () =
  let sites = [ Fault.Spurious_cancel; Fault.Flip_valence_bit ] in
  let r = Chaos.run ~jobs:2 ~seed:3 ~sites () in
  check_int "one trial per cell" (List.length r.Chaos.cells) r.Chaos.trials;
  check_int "six cells" 6 (List.length r.Chaos.cells);
  List.iter
    (fun (c : Chaos.cell) ->
      check_int
        (Printf.sprintf "%s x %s armed once" (Fault.site_name c.Chaos.site)
           c.Chaos.oracle)
        1 c.Chaos.armed_trials)
    r.Chaos.cells;
  check "all detected" true (Chaos.ok r)

let () =
  Alcotest.run "layered_chaos"
    [
      ( "injector",
        [
          Alcotest.test_case "disarmed is a no-op" `Quick test_disarmed_noop;
          Alcotest.test_case "seeded arming is deterministic" `Quick
            test_arm_deterministic;
          Alcotest.test_case "site names roundtrip" `Quick test_site_names_roundtrip;
          Alcotest.test_case "only the armed site counts" `Quick
            test_only_armed_site_counts;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "all pass disarmed" `Quick test_oracles_clean;
          Alcotest.test_case "pairing table resolves" `Quick test_pairings_resolve;
        ] );
      ( "harness",
        [
          Alcotest.test_case "full round detects everything" `Quick
            test_chaos_full_round;
          Alcotest.test_case "site filter" `Quick test_chaos_site_filter;
          Alcotest.test_case "default trials arm every cell" `Quick
            test_chaos_default_trials;
        ] );
    ]
