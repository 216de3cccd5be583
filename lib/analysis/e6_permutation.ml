open Layered_core
module Mp = Layered_async_mp

let split_last l =
  match List.rev l with
  | last :: rev_front -> (List.rev rev_front, last)
  | [] -> invalid_arg "split_last"

let run_one ~n ~horizon ~length =
  let module P = (val Layered_protocols.Mp_floodset.make ~horizon) in
  let module E = Mp.Engine.Make (P) in
  let succ = E.memo_layer E.sper in
  let valence = Valence.create (E.valence_spec ~succ) in
  let depth = horizon + 1 in
  let vals x = Valence.vals valence ~depth x in
  let classify x = Valence.classify valence ~depth x in
  let initials = E.initial_states ~n ~values:[ Value.zero; Value.one ] in
  let sample =
    List.concat_map
      (fun x0 ->
        Layered_runtime.(
          (Frontier.reachable Pool.serial ~succ ~ident:E.ident ~depth:1 x0).Budget.value))
      initials
  in
  let perms = Mp.Engine.permutations (Pid.all n) in
  let solo p = List.map (fun i -> Mp.Engine.Solo i) p in
  let params = Printf.sprintf "n=%d horizon=%d" n horizon in
  (* FLP diamond as state equality *)
  let diamond_ok =
    List.for_all
      (fun x ->
        List.for_all
          (fun p ->
            let front, last = split_last p in
            let lhs = E.apply (E.apply x (solo p)) (solo front) in
            let rhs = E.apply (E.apply x (solo front)) (solo (last :: front)) in
            E.equal lhs rhs)
          perms)
      sample
  in
  (* transposition bridges *)
  let transposition_ok =
    List.for_all
      (fun x ->
        List.for_all
          (fun p ->
            List.for_all
              (fun k ->
                let a = List.nth p k and b = List.nth p (k + 1) in
                let swapped =
                  List.mapi (fun i q -> if i = k then b else if i = k + 1 then a else q) p
                in
                let with_pair =
                  List.filteri (fun i _ -> i <> k + 1) p
                  |> List.mapi (fun i q ->
                         if i = k then Mp.Engine.Pair (min a b, max a b)
                         else Mp.Engine.Solo q)
                in
                let y = E.apply x (solo p) in
                let y_pair = E.apply x with_pair in
                let y_swapped = E.apply x (solo swapped) in
                E.similar y y_pair && E.similar y_pair y_swapped)
              (List.init (n - 1) Fun.id))
          perms)
      sample
  in
  let layers_ok =
    List.for_all (fun x -> Connectivity.valence_connected ~vals (succ x)) sample
  in
  let chain =
    match Layering.find_bivalent ~classify initials with
    | None -> Layering.{ states = []; complete = false; stuck = None }
    | Some x0 -> Layering.bivalent_chain ~classify ~succ ~length x0
  in
  [
    Report.check ~id:"E6" ~claim:"FLP diamond" ~params
      ~expected:"x[p][front] = x[front][pn::front]"
      ~measured:
        (Printf.sprintf "checked %d states x %d permutations" (List.length sample)
           (List.length perms))
      diamond_ok;
    Report.check ~id:"E6" ~claim:"transpositions" ~params
      ~expected:"perm ~s concurrent-pair ~s transposed perm"
      ~measured:(Printf.sprintf "checked %d states" (List.length sample))
      transposition_ok;
    Report.check ~id:"E6" ~claim:"layer valence" ~params
      ~expected:"every S^per(x) valence connected"
      ~measured:(Printf.sprintf "checked %d layers" (List.length sample))
      layers_ok;
    Report.check ~id:"E6" ~claim:"FLP (submodel)" ~params
      ~expected:(Printf.sprintf "bivalent chain of length %d" length)
      ~measured:(Printf.sprintf "length %d" (List.length chain.Layering.states))
      chain.Layering.complete;
  ]

let run () = run_one ~n:3 ~horizon:2 ~length:6
