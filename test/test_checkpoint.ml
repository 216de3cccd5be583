(* Unit tests for the durable checkpoint layer: format roundtrip,
   generation numbering, torn-write/corrupt-CRC rollback, and
   checkpoint/resume equivalence of the parallel frontier BFS. *)

open Layered_runtime
module Ckpt = Checkpoint

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Scratch directories *)

let tmp_counter = ref 0

let with_tmp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "layered-test-ckpt-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun x -> rm (Filename.concat path x)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

(* The on-disk name format is part of the documented contract
   ([<name>.g%06d.ckpt]); the corruption tests lean on it. *)
let gen_path dir name g = Filename.concat dir (Printf.sprintf "%s.g%06d.ckpt" name g)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  data

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* A crash mid-write: only a prefix of the file made it to disk. *)
let tear path =
  let data = read_file path in
  write_file path (String.sub data 0 (String.length data / 2))

(* Silent media corruption: one body byte flipped, length intact. *)
let flip_byte path =
  let data = read_file path in
  let b = Bytes.of_string data in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  write_file path (Bytes.to_string b)

let meta ?budget progress = Ckpt.make_meta ?budget ~progress ()

(* ------------------------------------------------------------------ *)
(* Format roundtrip and generations *)

let test_roundtrip () =
  with_tmp_dir (fun dir ->
      let b = Budget.create ~timeout_s:60.0 ~max_states:100 () in
      Budget.charge b 7;
      let saved =
        Ckpt.save ~dir ~name:"rt" ~meta:(meta ~budget:b 3) ~payload:"the payload"
      in
      check_int "first save is generation 1" 1 saved.Ckpt.generation;
      check "on-disk size covers header + body" true (saved.Ckpt.bytes > 16);
      match Ckpt.load_latest ~dir ~name:"rt" with
      | None -> Alcotest.fail "roundtrip load failed"
      | Some l ->
          Alcotest.(check string) "payload" "the payload" l.Ckpt.payload;
          check_int "generation" 1 l.Ckpt.generation;
          check_int "rejected" 0 l.Ckpt.rejected;
          check_int "version" Ckpt.current_version l.Ckpt.meta.Ckpt.version;
          check_int "progress" 3 l.Ckpt.meta.Ckpt.progress;
          check_int "states charged" 7 l.Ckpt.meta.Ckpt.states_charged;
          (match l.Ckpt.meta.Ckpt.deadline_remaining_s with
          | Some s -> check "deadline remaining within budget" true (s > 0. && s <= 60.)
          | None -> Alcotest.fail "expected a recorded deadline");
          check "no fault armed at save" true (l.Ckpt.meta.Ckpt.fault = None))

let test_meta_captures_armed_fault () =
  Fault.arm ~seed:99 Fault.Torn_checkpoint_write;
  let m = Fun.protect ~finally:Fault.disarm (fun () -> meta 0) in
  check "armed site and seed recorded" true
    (m.Ckpt.fault = Some ("torn_checkpoint_write", 99))

let test_generations_accumulate () =
  with_tmp_dir (fun dir ->
      List.iter
        (fun g -> ignore (Ckpt.save ~dir ~name:"acc" ~meta:(meta g) ~payload:(string_of_int g)))
        [ 1; 2; 3 ];
      Alcotest.(check (list int)) "generations" [ 1; 2; 3 ] (Ckpt.generations ~dir ~name:"acc");
      (match Ckpt.load_latest ~dir ~name:"acc" with
      | Some l ->
          check_int "newest wins" 3 l.Ckpt.generation;
          Alcotest.(check string) "newest payload" "3" l.Ckpt.payload
      | None -> Alcotest.fail "load failed");
      (* names are namespaced: a sibling name sees nothing *)
      check "sibling name isolated" true (Ckpt.load_latest ~dir ~name:"other" = None);
      (* no .tmp litter once saves returned *)
      Array.iter
        (fun f -> check ("no tmp litter: " ^ f) false (Filename.check_suffix f ".tmp"))
        (Sys.readdir dir))

let test_missing_dir () =
  check "absent directory loads None" true
    (Ckpt.load_latest ~dir:"/nonexistent/layered-ckpt" ~name:"x" = None)

(* prune keeps the newest [keep] generations, deletes the rest, and
   never touches sibling names *)
let test_prune () =
  with_tmp_dir (fun dir ->
      List.iter
        (fun g ->
          ignore (Ckpt.save ~dir ~name:"p" ~meta:(meta g) ~payload:(string_of_int g)))
        [ 1; 2; 3; 4 ];
      ignore (Ckpt.save ~dir ~name:"sib" ~meta:(meta 0) ~payload:"s");
      let deleted = Ckpt.prune ~dir ~name:"p" ~keep:2 in
      check_int "two generations deleted" 2 deleted;
      Alcotest.(check (list int)) "newest two survive" [ 3; 4 ]
        (Ckpt.generations ~dir ~name:"p");
      check "sibling untouched" true (Ckpt.generations ~dir ~name:"sib" = [ 1 ]);
      (match Ckpt.load_latest ~dir ~name:"p" with
      | Some l -> Alcotest.(check string) "newest payload survives" "4" l.Ckpt.payload
      | None -> Alcotest.fail "load after prune failed");
      (* keep is clamped to at least one generation *)
      ignore (Ckpt.prune ~dir ~name:"p" ~keep:0);
      check "keep 0 still keeps the newest" true
        (Ckpt.generations ~dir ~name:"p" = [ 4 ]))

(* ------------------------------------------------------------------ *)
(* Rollback: torn and corrupt generations are rejected, newest intact
   generation wins *)

let test_torn_latest_rolls_back () =
  with_tmp_dir (fun dir ->
      ignore (Ckpt.save ~dir ~name:"t" ~meta:(meta 1) ~payload:"good");
      ignore (Ckpt.save ~dir ~name:"t" ~meta:(meta 2) ~payload:"newer");
      tear (gen_path dir "t" 2);
      Alcotest.(check (list (pair int bool)))
        "scan flags the torn generation"
        [ (1, true); (2, false) ]
        (Ckpt.scan ~dir ~name:"t");
      match Ckpt.load_latest ~dir ~name:"t" with
      | Some l ->
          check_int "rolled back to generation 1" 1 l.Ckpt.generation;
          check_int "one newer generation rejected" 1 l.Ckpt.rejected;
          Alcotest.(check string) "intact payload" "good" l.Ckpt.payload
      | None -> Alcotest.fail "rollback load failed")

let test_corrupt_crc_rolls_back () =
  with_tmp_dir (fun dir ->
      ignore (Ckpt.save ~dir ~name:"c" ~meta:(meta 1) ~payload:"good");
      ignore (Ckpt.save ~dir ~name:"c" ~meta:(meta 2) ~payload:"newer");
      flip_byte (gen_path dir "c" 2);
      (match Ckpt.load_latest ~dir ~name:"c" with
      | Some l ->
          check_int "rolled back to generation 1" 1 l.Ckpt.generation;
          check_int "one newer generation rejected" 1 l.Ckpt.rejected
      | None -> Alcotest.fail "rollback load failed");
      (* every generation damaged: the loader reports nothing usable *)
      flip_byte (gen_path dir "c" 1);
      check "all-corrupt loads None" true (Ckpt.load_latest ~dir ~name:"c" = None))

(* A generation written by the previous format version is refused as
   not-intact — skipped, counted as rejected — and the loader rolls back
   to the older, current-version generation. *)
let test_older_version_refused () =
  with_tmp_dir (fun dir ->
      ignore (Ckpt.save ~dir ~name:"v" ~meta:(meta 1) ~payload:"current");
      ignore
        (Ckpt.save ~dir ~name:"v"
           ~meta:{ (meta 2) with Ckpt.version = Ckpt.current_version - 1 }
           ~payload:"older format");
      Alcotest.(check (list (pair int bool)))
        "scan flags the older-version generation"
        [ (1, true); (2, false) ]
        (Ckpt.scan ~dir ~name:"v");
      let before = (Stats.snapshot ()).Stats.ckpt_rejected in
      match Ckpt.load_latest ~dir ~name:"v" with
      | Some l ->
          check_int "rolled back to generation 1" 1 l.Ckpt.generation;
          check_int "one newer generation rejected" 1 l.Ckpt.rejected;
          check_int "rejection counted" 1
            ((Stats.snapshot ()).Stats.ckpt_rejected - before);
          Alcotest.(check string) "current-version payload" "current" l.Ckpt.payload
      | None -> Alcotest.fail "rollback load failed")

(* The same contract driven by the injection sites inside [save]: three
   saves under an armed fault tear or corrupt exactly one generation
   (the seed-derived firing index is < 3), and the loader returns the
   newest generation that survived. *)
let fault_site_rolls_back site () =
  with_tmp_dir (fun dir ->
      Fault.arm ~seed:7 site;
      Fun.protect ~finally:Fault.disarm (fun () ->
          List.iter
            (fun g ->
              ignore
                (Ckpt.save ~dir ~name:"f" ~meta:(meta g) ~payload:(string_of_int g)))
            [ 1; 2; 3 ]);
      check_int "the fault fired exactly once" 1 (Fault.fired ());
      let scan = Ckpt.scan ~dir ~name:"f" in
      check_int "exactly one generation damaged" 1
        (List.length (List.filter (fun (_, ok) -> not ok) scan));
      match Ckpt.load_latest ~dir ~name:"f" with
      | Some l ->
          Alcotest.(check string)
            "loaded payload matches its generation"
            (string_of_int l.Ckpt.generation)
            l.Ckpt.payload;
          check "loaded generation validated" true
            (List.assoc l.Ckpt.generation scan)
      | None -> Alcotest.fail "no intact generation survived")

(* ------------------------------------------------------------------ *)
(* Frontier checkpoint/resume *)

(* A graph big enough that a 40-state cap truncates well before depth. *)
let succ x = if x >= 500 then [] else [ ((3 * x) + 1) mod 601; (x + 7) mod 601 ]
let key = string_of_int
let ident = Fun.id

let save_sink ?budget dir name =
  fun (snap : int Frontier.snapshot) ->
   ignore
     (Ckpt.save ~dir ~name
        ~meta:(meta ?budget (List.length snap.Frontier.levels))
        ~payload:(Marshal.to_string snap []))

let load_snap dir name =
  match Ckpt.load_latest ~dir ~name with
  | None -> Alcotest.fail "no snapshot on disk"
  | Some l -> (Marshal.from_string l.Ckpt.payload 0 : int Frontier.snapshot)

(* Interrupt a capped run, resume it unbudgeted: the resumed levels must
   be byte-identical to an uninterrupted traversal, at jobs 1 and 4. *)
let test_frontier_resume_equivalence () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          with_tmp_dir (fun dir ->
              let reference = (Frontier.levels pool ~succ ~ident ~depth:20 1).Budget.value in
              let b = Budget.create ~max_states:40 () in
              let o =
                Frontier.levels ~budget:b
                  ~checkpoint:{ Frontier.every = 1; save = save_sink dir "bfs" }
                  pool ~succ ~ident ~depth:20 1
              in
              (match o.Budget.status with
              | Budget.Truncated _ -> ()
              | Budget.Complete -> Alcotest.fail "expected the cap to truncate");
              let resumed =
                Frontier.levels ~resume:(load_snap dir "bfs") pool ~succ ~ident ~depth:20 1
              in
              check
                (Printf.sprintf "resumed run completes at jobs=%d" jobs)
                true
                (resumed.Budget.status = Budget.Complete);
              Alcotest.(check (list (list string)))
                (Printf.sprintf "resumed levels equal uninterrupted at jobs=%d" jobs)
                (List.map (List.map key) reference)
                (List.map (List.map key) resumed.Budget.value))))
    [ 1; 4 ]

(* Snapshot content — the delivered levels — is identical across job
   counts: a checkpoint taken at jobs=4 resumes a jobs=1 run and vice
   versa. *)
let test_snapshot_identical_across_jobs () =
  let capture jobs =
    Pool.with_pool ~jobs (fun pool ->
        let snaps = ref [] in
        let save (snap : int Frontier.snapshot) =
          snaps := snap.Frontier.levels :: !snaps
        in
        ignore
          (Frontier.levels ~checkpoint:{ Frontier.every = 1; save } pool ~succ ~ident
             ~depth:6 1);
        List.rev !snaps)
  in
  let s1 = capture 1 and s4 = capture 4 in
  check_int "same snapshot count" (List.length s1) (List.length s4);
  List.iter2 (Alcotest.(check (list (list int))) "levels identical") s1 s4

(* A consumer that gives up mid-run: [f] raises [Exhausted] on the
   fourth level, after the traversal had already claimed that level's
   states.  The final flush must still describe only what [f] absorbed,
   so resuming from it yields the uninterrupted levels. *)
let dag x = List.map (fun k -> ((3 * x) + k) mod 331) [ 1; 2; 3 ]

let test_exhausted_level_resumes () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let full = (Frontier.levels pool ~succ:dag ~ident ~depth:6 0).Budget.value in
          let last = ref None and seen = ref 0 in
          let save snap = last := Some snap in
          let f _ =
            incr seen;
            if !seen = 4 then raise (Budget.Exhausted Budget.Interrupted)
          in
          let status =
            Frontier.iter_levels ~budget:(Budget.create ())
              ~checkpoint:{ Frontier.every = 2; save } pool ~succ:dag ~ident ~depth:6 ~f 0
          in
          check "the consumer's exhaustion truncates" true (status <> Budget.Complete);
          let snap = Option.get !last in
          check_int "the final snapshot holds the three absorbed levels" 3
            (List.length snap.Frontier.levels);
          let resumed = Frontier.levels ~resume:snap pool ~succ:dag ~ident ~depth:6 0 in
          check "resumed run completes" true (resumed.Budget.status = Budget.Complete);
          Alcotest.(check (list (list int)))
            (Printf.sprintf "resumed levels equal uninterrupted at jobs=%d" jobs)
            full resumed.Budget.value))
    [ 1; 4 ]

(* Every prefix of a full run's levels is a resume point, with and
   without [?canon].  The orbit of [x] is [{x, -x}]: successors depend
   on [abs x] only, so the orbit quotient is sound. *)
let signed x =
  let m = abs x in
  if m >= 60 then [] else [ m + 1; -(m + 1); m + 3; -(m + 5) ]

let test_every_prefix_resumes () =
  Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun canon ->
          let run ?resume () =
            (Frontier.levels ?resume ?canon pool ~succ:signed ~ident ~depth:8 0).Budget.value
          in
          let full = run () in
          check "a multi-level run" true (List.length full >= 5);
          List.iteri
            (fun i _ ->
              let prefix = List.filteri (fun j _ -> j <= i) full in
              Alcotest.(check (list (list int)))
                (Printf.sprintf "resumed from %d levels (%s)" (i + 1)
                   (if canon = None then "states" else "orbits"))
                full
                (run ~resume:{ Frontier.levels = prefix } ()))
            full)
        [ None; Some (fun x -> string_of_int (abs x)) ])

(* Re-imposing the interrupted run's consumption makes the cap trip at
   the same boundary: a resumed capped run reproduces the truncated
   levels and status exactly. *)
let test_cap_recharge_determinism () =
  Pool.with_pool ~jobs:2 (fun pool ->
      with_tmp_dir (fun dir ->
          let b = Budget.create ~max_states:40 () in
          let interrupted =
            Frontier.levels ~budget:b
              ~checkpoint:{ Frontier.every = 1; save = save_sink ~budget:b dir "cap" }
              pool ~succ ~ident ~depth:20 1
          in
          let loaded = Option.get (Ckpt.load_latest ~dir ~name:"cap") in
          let snap = (Marshal.from_string loaded.Ckpt.payload 0 : int Frontier.snapshot) in
          let b' = Budget.create ~max_states:40 () in
          Budget.charge b' loaded.Ckpt.meta.Ckpt.states_charged;
          let resumed = Frontier.levels ~budget:b' ~resume:snap pool ~succ ~ident ~depth:20 1 in
          check "same truncation status" true
            (resumed.Budget.status = interrupted.Budget.status);
          Alcotest.(check (list (list string)))
            "same truncated levels"
            (List.map (List.map key) interrupted.Budget.value)
            (List.map (List.map key) resumed.Budget.value)))

(* Resume composes with the soft watermark: a capped run and its resume
   both compact at every level boundary (~16 MB of live ballast over an
   8 MB watermark), and the resumed levels equal an uninterrupted
   unbudgeted run's. *)
let test_resume_under_soft_watermark () =
  let ballast = Array.init (2 * 1024 * 1024) Fun.id in
  Pool.with_pool ~jobs:2 (fun pool ->
      with_tmp_dir (fun dir ->
          let reference = Frontier.levels pool ~succ ~ident ~depth:20 1 in
          let before = (Stats.snapshot ()).Stats.mem_soft_events in
          let interrupted =
            Frontier.levels
              ~budget:(Budget.create ~max_states:40 ~soft_memory_mb:8 ())
              ~checkpoint:{ Frontier.every = 1; save = save_sink dir "soft" }
              pool ~succ ~ident ~depth:20 1
          in
          check "interrupted" true (interrupted.Budget.status <> Budget.Complete);
          let resumed =
            Frontier.levels
              ~budget:(Budget.create ~soft_memory_mb:8 ())
              ~resume:(load_snap dir "soft") pool ~succ ~ident ~depth:20 1
          in
          check "the watermark bit" true
            ((Stats.snapshot ()).Stats.mem_soft_events > before);
          check "resumed run completes" true (resumed.Budget.status = Budget.Complete);
          Alcotest.(check (list (list string)))
            "resumed levels equal the uninterrupted unbudgeted run"
            (List.map (List.map key) reference.Budget.value)
            (List.map (List.map key) resumed.Budget.value)));
  ignore (Sys.opaque_identity ballast)

(* A snapshot of a completed traversal resumes to an immediate,
   identical completion — the idempotence the CLI's --resume relies on
   when a run was interrupted after its final flush. *)
let test_resume_of_complete_run () =
  Pool.with_pool ~jobs:2 (fun pool ->
      with_tmp_dir (fun dir ->
          let full =
            Frontier.levels
              ~checkpoint:{ Frontier.every = 1; save = save_sink dir "done" }
              pool ~succ ~ident ~depth:6 1
          in
          let resumed =
            Frontier.levels ~resume:(load_snap dir "done") pool ~succ ~ident ~depth:6 1
          in
          check "still complete" true (resumed.Budget.status = Budget.Complete);
          Alcotest.(check (list (list string)))
            "levels unchanged"
            (List.map (List.map key) full.Budget.value)
            (List.map (List.map key) resumed.Budget.value)))

let () =
  Alcotest.run "layered_checkpoint"
    [
      ( "format",
        [
          Alcotest.test_case "roundtrip with meta" `Quick test_roundtrip;
          Alcotest.test_case "meta records the armed fault" `Quick
            test_meta_captures_armed_fault;
          Alcotest.test_case "generations accumulate" `Quick test_generations_accumulate;
          Alcotest.test_case "missing directory" `Quick test_missing_dir;
          Alcotest.test_case "prune keeps the newest" `Quick test_prune;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "torn latest generation" `Quick test_torn_latest_rolls_back;
          Alcotest.test_case "corrupt CRC" `Quick test_corrupt_crc_rolls_back;
          Alcotest.test_case "older version refused" `Quick test_older_version_refused;
          Alcotest.test_case "injected torn write" `Quick
            (fault_site_rolls_back Fault.Torn_checkpoint_write);
          Alcotest.test_case "injected CRC corruption" `Quick
            (fault_site_rolls_back Fault.Corrupt_checkpoint_crc);
        ] );
      ( "resume",
        [
          Alcotest.test_case "equivalence at jobs 1 and 4" `Quick
            test_frontier_resume_equivalence;
          Alcotest.test_case "snapshot content identical across jobs" `Quick
            test_snapshot_identical_across_jobs;
          Alcotest.test_case "cap recharge is deterministic" `Quick
            test_cap_recharge_determinism;
          Alcotest.test_case "resume of a complete run" `Quick test_resume_of_complete_run;
          Alcotest.test_case "resume composes with mem-soft" `Quick
            test_resume_under_soft_watermark;
          Alcotest.test_case "exhausted level leaves a resumable snapshot" `Quick
            test_exhausted_level_resumes;
          Alcotest.test_case "every level prefix resumes to the full run" `Quick
            test_every_prefix_resumes;
        ] );
    ]
