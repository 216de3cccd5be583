(* Tests for the symmetry-quotient machinery: Canon's canonical forms
   (permutation invariance, idempotence, role respect, orbit-size
   weights) as QCheck properties, plus end-to-end regressions — the
   --symmetry IIS sweep reports byte-identically to the unreduced sweep
   at jobs 1 and 4 while expanding strictly fewer states, and a
   checkpoint written under one symmetry setting refuses to resume under
   the other. *)

open Layered_core
module Sweep = Layered_analysis.Sweep
module Pool = Layered_runtime.Pool
module Stats = Layered_runtime.Stats
module Ckpt = Layered_runtime.Checkpoint

let check = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Generators: a role array (header slot -1, small role ids), a part
   array over a tiny alphabet (so multiplicity collisions are common),
   and a seed from which a role-respecting permutation is derived. *)

let tiny_string =
  QCheck.Gen.(string_size ~gen:(char_range 'a' 'c') (int_bound 2))

let case_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    array_size (return n) (int_bound 2) >>= fun roles_tail ->
    array_size (return n) tiny_string >>= fun parts_tail ->
    tiny_string >>= fun header ->
    int >>= fun seed ->
    return
      ( Array.append [| -1 |] roles_tail,
        Array.append [| header |] parts_tail,
        seed ))

let case_print (roles, parts, seed) =
  Printf.sprintf "roles=[%s] parts=[%s] seed=%d"
    (String.concat ";" (Array.to_list (Array.map string_of_int roles)))
    (String.concat ";" (Array.to_list parts))
    seed

let case_arb = QCheck.make ~print:case_print case_gen

(* Positions 1.. grouped by role (the header never moves). *)
let classes_of roles =
  let tbl = Hashtbl.create 8 in
  for i = Array.length roles - 1 downto 1 do
    let c = try Hashtbl.find tbl roles.(i) with Not_found -> [] in
    Hashtbl.replace tbl roles.(i) (i :: c)
  done;
  Hashtbl.fold (fun _ members acc -> members :: acc) tbl []

(* A role-respecting permutation: Fisher-Yates within each class. *)
let role_respecting_perm st roles =
  let perm = Array.init (Array.length roles) Fun.id in
  List.iter
    (fun members ->
      let m = Array.of_list members in
      for i = Array.length m - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let tmp = perm.(m.(i)) in
        perm.(m.(i)) <- perm.(m.(j));
        perm.(m.(j)) <- tmp
      done)
    (classes_of roles);
  perm

let permute parts p = Array.init (Array.length parts) (fun i -> parts.(p.(i)))

let prop_canon_perm_invariant =
  QCheck.Test.make ~name:"canon: key invariant under role-respecting renaming"
    ~count:500 case_arb (fun (roles, parts, seed) ->
      let st = Random.State.make [| seed |] in
      let p = role_respecting_perm st roles in
      String.equal (Canon.key ~roles parts) (Canon.key ~roles (permute parts p)))

let prop_canon_idempotent =
  QCheck.Test.make ~name:"canon: sort is idempotent" ~count:500 case_arb
    (fun (roles, parts, _) ->
      let canonical, _ = Canon.sort ~roles parts in
      fst (Canon.sort ~roles canonical) = canonical)

let prop_canon_witness_role_respecting =
  QCheck.Test.make
    ~name:"canon: witness is a role-respecting permutation onto the canonical form"
    ~count:500 case_arb (fun (roles, parts, _) ->
      let canonical, w = Canon.sort ~roles parts in
      let len = Array.length parts in
      w.(0) = 0
      && List.sort compare (Array.to_list w) = List.init len Fun.id
      && Array.for_all Fun.id (Array.init len (fun i -> roles.(w.(i)) = roles.(i)))
      && Canon.apply_witness ~witness:w parts = canonical)

(* Orbit enumerated the slow way: all role-respecting permutations,
   distinct images counted. *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
        l

let all_perms_of_class members =
  List.map (fun p -> List.combine members p) (permutations members)

let prop_canon_weight_is_orbit_size =
  QCheck.Test.make ~name:"canon: weight equals enumerated orbit size" ~count:200
    case_arb (fun (roles, parts, _) ->
      let assignments =
        List.fold_left
          (fun acc cls ->
            List.concat_map
              (fun partial -> List.map (fun a -> a @ partial) (all_perms_of_class cls))
              acc)
          [ [] ] (classes_of roles)
      in
      let image assignment =
        let p = Array.init (Array.length parts) Fun.id in
        List.iter (fun (i, j) -> p.(i) <- j) assignment;
        Canon.render (permute parts p)
      in
      let distinct = List.sort_uniq compare (List.map image assignments) in
      List.length distinct = Canon.weight ~roles parts)

(* ------------------------------------------------------------------ *)
(* End-to-end: the quotiented IIS sweep is report-equivalent.          *)

let render sweep = Format.asprintf "%a" Sweep.pp sweep

let sweep_leg ~pool ?checkpoint ~sym () =
  let before = Stats.snapshot () in
  let s = Sweep.run ~pool ?checkpoint ~symmetry:sym ~model:"iis" ~n:4 ~t:1 ~depth:2 () in
  let d = Stats.diff (Stats.snapshot ()) before in
  (render s, d.Stats.states_expanded)

let test_symmetry_report_identical () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let off, off_states = sweep_leg ~pool ~sym:false () in
          let on, on_states = sweep_leg ~pool ~sym:true () in
          check_string (Printf.sprintf "jobs=%d report byte-identical" jobs) off on;
          check
            (Printf.sprintf "jobs=%d strictly fewer states (%d < %d)" jobs
               on_states off_states)
            true (on_states < off_states)))
    [ 1; 4 ]

(* [orbit hits] counts distinct candidate states merged into another
   member's orbit, so it never exceeds the dedup hits.  Pinned on the
   instance of `layers -m iis -n 5 -t 1 -d 2 --symmetry --stats`: 22 of
   its 37 dedup hits are orbit merges, at every job count. *)
let test_orbit_hits_pinned () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let leg symmetry =
            let before = Stats.snapshot () in
            ignore (Sweep.run ~pool ~symmetry ~model:"iis" ~n:5 ~t:1 ~depth:2 ());
            Stats.diff (Stats.snapshot ()) before
          in
          let off = leg false and on = leg true in
          let int = Alcotest.(check int) in
          int (Printf.sprintf "jobs=%d no orbit hits unreduced" jobs) 0
            off.Stats.orbit_hits;
          int (Printf.sprintf "jobs=%d dedup hits" jobs) 37 on.Stats.dedup_hits;
          int (Printf.sprintf "jobs=%d orbit hits" jobs) 22 on.Stats.orbit_hits))
    [ 1; 4 ]

let test_symmetry_noop_on_sync () =
  (* Prefix-blocked omissions leave partial orbits reachable, so the
     sync substrate must ignore the flag entirely. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let leg symmetry =
        let before = Stats.snapshot () in
        let s = Sweep.run ~pool ~symmetry ~model:"sync" ~n:3 ~t:1 ~depth:2 () in
        let d = Stats.diff (Stats.snapshot ()) before in
        (render s, d.Stats.states_expanded)
      in
      let off, off_states = leg false in
      let on, on_states = leg true in
      check_string "sync report unchanged" off on;
      Alcotest.(check int) "sync states unchanged" off_states on_states)

(* ------------------------------------------------------------------ *)
(* The model table's renaming-closure declarations, checked.  From all  *)
(* initial states at n = 3, every state within two layers is renamed by *)
(* each of the six renamings (its parts permuted, the header fixed).  A *)
(* row is closed when every renamed state is reachable and its layering *)
(* commutes with every renaming; that must hold exactly on the rows     *)
(* that declare it, and only those may shrink under the flag.           *)

module Models = Layered_analysis.Models

(* (states within two layers, renamed states not among them, renamings
   of an expanded state that do not commute with the layering) *)
let closure_defects (row : Models.t) =
  let module E = (val row.Models.engine ~t:1) in
  let expand level = List.map (fun x -> (x, E.layer x)) level in
  (* Three input values, not two: with binary inputs every successor of
     IIS min-voting comes from at least two ordered partitions, so a
     layering missing any one partition would still pass. *)
  let values = [ Value.zero; Value.one; Value.of_int 2 ] in
  let level0 = E.initial_states ~n:3 ~values in
  let layers0 = expand level0 in
  let level1 = E.dedup (List.concat_map snd layers0) in
  let layers1 = expand level1 in
  let level2 = E.dedup (List.concat_map snd layers1) in
  let reached = E.dedup (level0 @ level1 @ level2) in
  let parts_of = Intern.parts_of_id E.intern_table in
  let parts x = parts_of (E.ident x) in
  let by_parts = Hashtbl.create 64 and layer_of = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.replace by_parts (parts x) x) reached;
  List.iter (fun (x, l) -> Hashtbl.replace layer_of (E.ident x) l) (layers0 @ layers1);
  let image p l = List.sort_uniq compare (List.map (fun y -> permute (parts y) p) l) in
  let identity = Array.init 4 Fun.id in
  let unreachable = ref 0 and noncommuting = ref 0 in
  List.iter
    (fun x ->
      List.iter
        (fun p ->
          let p = Array.of_list (0 :: p) in
          match Hashtbl.find_opt by_parts (permute (parts x) p) with
          | None -> incr unreachable
          | Some x' -> (
              match
                (Hashtbl.find_opt layer_of (E.ident x), Hashtbl.find_opt layer_of (E.ident x'))
              with
              | Some l, Some l' -> if image p l <> image identity l' then incr noncommuting
              | _ -> ()))
        (permutations [ 1; 2; 3 ]))
    reached;
  (List.length reached, !unreachable, !noncommuting)

let test_renaming_closure_declared () =
  List.iter
    (fun (row : Models.t) ->
      let states, unreachable, noncommuting = closure_defects row in
      check
        (Printf.sprintf
           "%s: %d states, %d renamed unreachable, %d non-commuting (declared %b)"
           row.Models.name states unreachable noncommuting row.Models.renaming_closed)
        row.Models.renaming_closed
        (unreachable = 0 && noncommuting = 0))
    Models.all

let test_symmetry_iff_declared () =
  Pool.with_pool ~jobs:1 (fun pool ->
      List.iter
        (fun (row : Models.t) ->
          let leg symmetry =
            let before = Stats.snapshot () in
            let s =
              Sweep.run ~pool ~symmetry ~model:row.Models.name ~n:3 ~t:1 ~depth:2 ()
            in
            (render s, (Stats.diff (Stats.snapshot ()) before).Stats.states_expanded)
          in
          let off, off_states = leg false in
          let on, on_states = leg true in
          check_string (row.Models.name ^ " report unchanged") off on;
          check
            (Printf.sprintf "%s: %d -> %d states expanded, fewer iff declared"
               row.Models.name off_states on_states)
            row.Models.renaming_closed (on_states < off_states);
          check (row.Models.name ^ " never more states") true (on_states <= off_states))
        Models.all)

(* ------------------------------------------------------------------ *)
(* Checkpoints refuse to cross the symmetry setting.                   *)

let tmp_counter = ref 0

let with_tmp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "canon-ckpt-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_checkpoint_symmetry_refusal () =
  with_tmp_dir (fun dir ->
      Pool.with_pool ~jobs:1 (fun pool ->
          let write = { Sweep.dir; every = 1; resume = false } in
          let resume = { Sweep.dir; every = 1; resume = true } in
          ignore (sweep_leg ~pool ~checkpoint:write ~sym:true ());
          Alcotest.check_raises "unreduced resume of a --symmetry snapshot"
            (Ckpt.Symmetry_mismatch { saved = true; requested = false })
            (fun () -> ignore (sweep_leg ~pool ~checkpoint:resume ~sym:false ()));
          (* The matching setting resumes fine and reports identically. *)
          let resumed, _ = sweep_leg ~pool ~checkpoint:resume ~sym:true () in
          let fresh, _ = sweep_leg ~pool ~sym:true () in
          check_string "matching resume reports identically" fresh resumed))

let test_checkpoint_meta_records_symmetry () =
  let m_off = Ckpt.make_meta ~progress:0 () in
  let m_on = Ckpt.make_meta ~symmetry:true ~progress:0 () in
  check "default meta is unreduced" false m_off.Ckpt.symmetry;
  check "symmetry recorded" true m_on.Ckpt.symmetry

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "layered_canon"
    [
      ( "canon",
        [
          qt prop_canon_perm_invariant;
          qt prop_canon_idempotent;
          qt prop_canon_witness_role_respecting;
          qt prop_canon_weight_is_orbit_size;
        ] );
      ( "symmetry-sweep",
        [
          Alcotest.test_case "report identical, fewer states" `Quick
            test_symmetry_report_identical;
          Alcotest.test_case "no-op on sync" `Quick test_symmetry_noop_on_sync;
          Alcotest.test_case "orbit hits pinned" `Quick test_orbit_hits_pinned;
          Alcotest.test_case "renaming closure iff declared" `Quick
            test_renaming_closure_declared;
          Alcotest.test_case "fewer states iff declared" `Quick
            test_symmetry_iff_declared;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "cross-setting resume refused" `Quick
            test_checkpoint_symmetry_refusal;
          Alcotest.test_case "meta records the flag" `Quick
            test_checkpoint_meta_records_symmetry;
        ] );
    ]
