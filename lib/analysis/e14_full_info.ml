open Layered_core

let values = [ Value.zero; Value.one ]

let mobile ~n ~horizon ~length =
  let module P = (val Layered_protocols.Full_info.sync ~horizon) in
  let module E = Layered_sync.Engine.Make (P) in
  let succ = E.layer E.s1 in
  let valence = Valence.create (E.valence_spec ~succ) in
  let depth = horizon + 1 in
  let vals x = Valence.vals valence ~depth x in
  let classify x = Valence.classify valence ~depth x in
  let initials = E.initial_states ~n ~values in
  let layers_ok =
    List.for_all (fun x -> Connectivity.valence_connected ~vals (succ x)) initials
  in
  let chain =
    match Layering.find_bivalent ~classify initials with
    | None -> Layering.{ states = []; complete = false; stuck = None }
    | Some x0 -> Layering.bivalent_chain ~classify ~succ ~length x0
  in
  let params = Printf.sprintf "full-info mobile n=%d h=%d" n horizon in
  [
    Report.check ~id:"E14" ~claim:"Lemma 5.1(iii)" ~params
      ~expected:"layers valence connected under full information"
      ~measured:(Printf.sprintf "checked %d layers" (List.length initials))
      layers_ok;
    Report.check ~id:"E14" ~claim:"Cor 5.2" ~params
      ~expected:(Printf.sprintf "bivalent chain of length %d" length)
      ~measured:(Printf.sprintf "length %d" (List.length chain.Layering.states))
      chain.Layering.complete;
  ]

let shared_memory ~n ~horizon =
  let module P = (val Layered_protocols.Full_info.shared_memory ~horizon) in
  let module E = Layered_async_sm.Engine.Make (P) in
  let open Layered_async_sm.Engine in
  let valence = Valence.create (E.valence_spec ~succ:E.srw) in
  let depth = horizon + 1 in
  let vals x = Valence.vals valence ~depth x in
  let initials = E.initial_states ~n ~values in
  let bridge_ok =
    List.for_all
      (fun x ->
        List.for_all
          (fun j ->
            let y =
              E.apply (E.apply x { slow = j; mode = Read_late n }) { slow = j; mode = Absent }
            in
            let y' =
              E.apply (E.apply x { slow = j; mode = Absent }) { slow = j; mode = Read_late 0 }
            in
            E.agree_modulo y y' j)
          (Pid.all n))
      initials
  in
  let layers_ok =
    List.for_all (fun x -> Connectivity.valence_connected ~vals (E.srw x)) initials
  in
  let params = Printf.sprintf "full-info sm n=%d h=%d" n horizon in
  [
    Report.check ~id:"E14" ~claim:"Lemma 5.3 bridge" ~params
      ~expected:"x(j,n)(j,A) = x(j,A)(j,0) modulo j under full information"
      ~measured:(Printf.sprintf "checked %d states" (List.length initials))
      bridge_ok;
    Report.check ~id:"E14" ~claim:"Lemma 5.3 (iii)" ~params
      ~expected:"S^rw layers valence connected"
      ~measured:(Printf.sprintf "checked %d layers" (List.length initials))
      layers_ok;
  ]

let message_passing ~n ~horizon =
  let module P = (val Layered_protocols.Full_info.message_passing ~horizon) in
  let module E = Layered_async_mp.Engine.Make (P) in
  let valence = Valence.create (E.valence_spec ~succ:E.sper) in
  let depth = horizon + 1 in
  let vals x = Valence.vals valence ~depth x in
  let initials = E.initial_states ~n ~values in
  let solo p = List.map (fun i -> Layered_async_mp.Engine.Solo i) p in
  let diamond_ok =
    List.for_all
      (fun x ->
        List.for_all
          (fun p ->
            let front = List.filteri (fun i _ -> i < n - 1) p in
            let last = List.nth p (n - 1) in
            let lhs = E.apply (E.apply x (solo p)) (solo front) in
            let rhs = E.apply (E.apply x (solo front)) (solo (last :: front)) in
            E.equal lhs rhs)
          (Layered_async_mp.Engine.permutations (Pid.all n)))
      initials
  in
  let layers_ok =
    List.for_all (fun x -> Connectivity.valence_connected ~vals (E.sper x)) initials
  in
  let params = Printf.sprintf "full-info mp n=%d h=%d" n horizon in
  [
    Report.check ~id:"E14" ~claim:"FLP diamond" ~params
      ~expected:"diamond equality under full information"
      ~measured:(Printf.sprintf "checked %d states" (List.length initials))
      diamond_ok;
    Report.check ~id:"E14" ~claim:"layer valence" ~params
      ~expected:"S^per layers valence connected"
      ~measured:(Printf.sprintf "checked %d layers" (List.length initials))
      layers_ok;
  ]

let iis ~n ~horizon =
  let module P = (val Layered_protocols.Full_info.iis ~horizon) in
  let module E = Layered_iis.Engine.Make (P) in
  let initials = E.initial_states ~n ~values in
  let similarity_ok =
    List.for_all (fun x -> Connectivity.connected_via ~graph:E.similarity_graph (E.layer x)) initials
  in
  let params = Printf.sprintf "full-info iis n=%d h=%d" n horizon in
  [
    Report.check ~id:"E14" ~claim:"IIS layers" ~params
      ~expected:"layers similarity connected under full information"
      ~measured:(Printf.sprintf "checked %d layers" (List.length initials))
      similarity_ok;
  ]

let run () =
  mobile ~n:3 ~horizon:2 ~length:4
  @ shared_memory ~n:3 ~horizon:2
  @ message_passing ~n:3 ~horizon:2
  @ iis ~n:3 ~horizon:2
