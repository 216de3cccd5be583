open Layered_core
open Layered_topology

let run_one ~n ~t =
  let values = [ Value.zero; Value.one; Value.of_int 2 ] in
  let module P = (val Layered_protocols.Sync_floodset.make ~t) in
  let module E = Layered_sync.Engine.Make (P) in
  let succ = E.layer (E.st ~t) in
  let all = Pid.all n in
  let unanimous v = Simplex.of_assoc (List.map (fun p -> (p, v)) all) in
  (* O0: everyone decides 0 or everyone decides 1; O1: everyone decides
     2.  FloodSet's runs decide unanimously among non-failed processes,
     so this covers all decided outputs and both sides are reachable. *)
  let cover =
    Covering.of_complexes ~label:"min<=1 vs min=2"
      (Complex.of_simplexes [ unanimous Value.zero; unanimous Value.one ])
      (Complex.of_simplexes [ unanimous (Value.of_int 2) ])
  in
  let output x =
    let decs = E.decisions x in
    Simplex.of_assoc
      (List.filter_map
         (fun i ->
           if x.E.failed.(i - 1) then None
           else match decs.(i - 1) with Some v -> Some (i, v) | None -> None)
         all)
  in
  let valence =
    Valence.create (Covering.valence_spec cover ~output (E.valence_spec ~succ))
  in
  let depth = t + 2 in
  let classify x = Valence.classify valence ~depth x in
  let cvals x = Valence.vals valence ~depth x in
  let initials = E.initial_states ~n ~values in
  let params = Printf.sprintf "floodset n=%d t=%d |V|=3" n t in
  match Layering.find_bivalent ~classify initials with
  | None ->
      [
        Report.check ~id:"E12" ~claim:"Lemma 7.4" ~params
          ~expected:"a covering-bivalent initial state" ~measured:"none found" false;
      ]
  | Some x0 ->
      let chain = Layering.bivalent_chain ~classify ~succ ~length:t x0 in
      let failures_bounded =
        List.for_all (fun x -> E.failed_count x <= x.E.round) chain.Layering.states
      in
      let layers_connected =
        List.for_all
          (fun x -> Connectivity.valence_connected ~vals:cvals (succ x))
          (* Lemma 3.3's display condition needs a crash in reserve past
             the layer: it applies to states with fewer than t - 1
             failures (for t = 1 the check is vacuous, exactly as in the
             binary case — see quickstart.ml). *)
          (List.filter (fun x -> E.failed_count x < t - 1) chain.Layering.states)
      in
      let undecided_at_t =
        match List.rev chain.Layering.states with
        | last :: _ when chain.Layering.complete ->
            let undecided y =
              let decs = E.decisions y in
              List.length (List.filter (fun i -> decs.(i - 1) = None) (E.nonfailed y))
            in
            List.fold_left (fun acc y -> max acc (undecided y)) 0 (succ last)
        | _ -> -1
      in
      [
        Report.check ~id:"E12" ~claim:"covering is genuine" ~params
          ~expected:"both covering sides reachable from x0"
          ~measured:(Format.asprintf "vals = %a" Vset.pp (cvals x0))
          (Vset.cardinal (cvals x0) = 2);
        Report.check ~id:"E12" ~claim:"Lemma 7.4 chain" ~params
          ~expected:
            (Printf.sprintf "covering-bivalent chain through round %d, <=m failed" (t - 1))
          ~measured:
            (Printf.sprintf "chain length %d%s" (List.length chain.Layering.states)
               (if failures_bounded then "" else ", failure bound violated"))
          (chain.Layering.complete && failures_bounded);
        Report.check ~id:"E12" ~claim:"Lemma 7.1 layers" ~params
          ~expected:"chain layers valence connected w.r.t. the covering"
          ~measured:(Printf.sprintf "checked %d layers" (List.length chain.Layering.states))
          layers_connected;
        Report.check ~id:"E12" ~claim:"generalized Lemma 6.2" ~params
          ~expected:"a round-t successor with a non-failed undecided process"
          ~measured:
            (if undecided_at_t < 0 then "chain incomplete"
             else Printf.sprintf "up to %d undecided" undecided_at_t)
          (undecided_at_t >= 1);
      ]

let run () = run_one ~n:3 ~t:1 @ run_one ~n:4 ~t:2
