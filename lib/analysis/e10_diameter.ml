open Layered_core

let run_one ~n ~t ~levels =
  let module E = (val (Models.get ~caller:"E10" "sync").Models.engine ~t) in
  let succ = E.layer in
  let initials = E.initial_states ~n ~values:[ Value.zero; Value.one ] in
  let rec go rows level xs dx =
    if level > levels then rows
    else begin
      let layers = List.map succ xs in
      let layer_diameters =
        List.map (fun layer -> Connectivity.diameter_via ~graph:E.similarity_graph layer) layers
      in
      let dy =
        List.fold_left
          (fun acc d -> match (acc, d) with Some a, Some b -> Some (max a b) | _ -> None)
          (Some 0) layer_diameters
      in
      let next = E.dedup (List.concat layers) in
      let dnext = Connectivity.diameter_via ~graph:E.similarity_graph next in
      let params = Printf.sprintf "floodset n=%d t=%d level=%d" n t level in
      let rows =
        match (dy, dnext) with
        | Some dy, Some dnext ->
            let bound = (dx * dy) + dx + dy in
            rows
            @ [
                Report.check ~id:"E10" ~claim:"Lemma 7.6" ~params
                  ~expected:
                    (Printf.sprintf "S(X) s-connected, diam <= dX*dY+dX+dY = %d" bound)
                  ~measured:
                    (Printf.sprintf "|X|=%d dX=%d dY=%d diam(S(X))=%d" (List.length next)
                       dx dy dnext)
                  (dnext <= bound);
                Report.row ~id:"E10" ~claim:"d_Y^m estimate" ~params
                  ~expected:(Printf.sprintf "paper: d_Y^m = 2(n-m) = %d" (2 * (n - level + 1)))
                  ~measured:(Printf.sprintf "max layer diameter %d" dy)
                  Report.Info;
              ]
        | _ ->
            rows
            @ [
                Report.check ~id:"E10" ~claim:"Lemma 7.6" ~params
                  ~expected:"S(X) and all layers s-connected"
                  ~measured:"a similarity graph is disconnected" false;
              ]
      in
      match dnext with
      | Some dnext -> go rows (level + 1) next dnext
      | None -> rows
    end
  in
  let d0 =
    match Connectivity.diameter_via ~graph:E.similarity_graph initials with
    | Some d -> d
    | None -> -1
  in
  let con0_row =
    Report.check ~id:"E10" ~claim:"Con_0 diameter"
      ~params:(Printf.sprintf "n=%d" n)
      ~expected:(Printf.sprintf "s-connected, diameter <= n = %d" n)
      ~measured:(Printf.sprintf "diameter %d" d0)
      (d0 >= 0 && d0 <= n)
  in
  con0_row :: go [] 1 initials d0

(* Section 6 assumes 1 <= t <= n - 2: with t = n - 1 a layer state can
   have n - 1 failures, leaving no similarity witness, so only instances
   within that range are meaningful. *)
let run () = run_one ~n:3 ~t:1 ~levels:1 @ run_one ~n:4 ~t:1 ~levels:1 @ run_one ~n:4 ~t:2 ~levels:2
