open Layered_core

type line = { round : int; action : string; decided : string; violation : bool }
type t = { model : string; n : int; horizon : int; complete : bool; lines : line list }

let build (type a) ~model ~n ~horizon ~length ~(initials : a list)
    ~(classify : a -> Valence.verdict) ~(succ_labelled : a -> (string * a) list)
    ~(decided : a -> Vset.t) ~(round : a -> int) =
  match Layering.find_bivalent ~classify initials with
  | None -> { model; n; horizon; complete = false; lines = [] }
  | Some x0 ->
      let chain =
        Layering.bivalent_chain_labelled ~classify ~succ:succ_labelled ~length x0
      in
      let line_of action x =
        let d = decided x in
        {
          round = round x;
          action;
          decided = Format.asprintf "%a" Vset.pp d;
          violation = Vset.cardinal d >= 2;
        }
      in
      {
        model;
        n;
        horizon;
        complete = chain.Layering.complete_l;
        lines =
          line_of "(start)" x0
          :: List.map (fun (a, x) -> line_of a x) chain.Layering.steps;
      }

let run ~model ~n ~t ~length =
  let horizon = t + 1 in
  let values = [ Value.zero; Value.one ] in
  match model with
  | "mobile" ->
      let module P = (val Layered_protocols.Sync_floodset.make ~t) in
      let module E = Layered_sync.Engine.Make (P) in
      let adv = E.s1 in
      let valence = Valence.create (E.valence_spec ~succ:(E.layer adv)) in
      let succ_labelled x =
        List.map
          (fun a ->
            let label =
              E.omit (List.filter (fun o -> o.E.blocked <> []) a.E.drops)
              |> Format.asprintf "%a" E.pp_action
            in
            (label, E.apply adv.discipline x a))
          (adv.actions x)
      in
      build ~model ~n ~horizon ~length
        ~initials:(E.initial_states ~n ~values)
        ~classify:(Valence.classify valence ~depth:(horizon + 1))
        ~succ_labelled ~decided:E.decided_vset
        ~round:(fun x -> x.E.round)
  | "sync" ->
      let module P = (val Layered_protocols.Sync_floodset.make ~t) in
      let module E = Layered_sync.Engine.Make (P) in
      let adv = E.st ~t in
      let valence = Valence.create (E.valence_spec ~succ:(E.layer adv)) in
      let succ_labelled x =
        List.map
          (fun a -> (Format.asprintf "%a" E.pp_action a, E.apply adv.discipline x a))
          (adv.actions x)
      in
      (* Bivalence survives only through round t - 1 in this model. *)
      build ~model ~n ~horizon ~length:(min length t)
        ~initials:(E.initial_states ~n ~values)
        ~classify:(Valence.classify valence ~depth:(horizon + 1))
        ~succ_labelled ~decided:E.decided_vset
        ~round:(fun x -> x.E.round)
  | "sm" ->
      let module P = (val Layered_protocols.Sm_voting.make ~horizon) in
      let module E = Layered_async_sm.Engine.Make (P) in
      let valence = Valence.create (E.valence_spec ~succ:E.srw) in
      let succ_labelled x =
        List.map
          (fun a -> (Format.asprintf "%a" Layered_async_sm.Engine.pp_action a, E.apply x a))
          (E.actions ~n)
      in
      build ~model ~n ~horizon ~length
        ~initials:(E.initial_states ~n ~values)
        ~classify:(Valence.classify valence ~depth:(horizon + 1))
        ~succ_labelled ~decided:E.decided_vset
        ~round:(fun x -> x.E.phase)
  | "mp" ->
      let module P = (val Layered_protocols.Mp_floodset.make ~horizon) in
      let module E = Layered_async_mp.Engine.Make (P) in
      let valence = Valence.create (E.valence_spec ~succ:E.sper) in
      let succ_labelled x =
        List.map
          (fun s -> (Format.asprintf "%a" Layered_async_mp.Engine.pp_schedule s, E.apply x s))
          (E.schedules ~n)
      in
      build ~model ~n ~horizon ~length
        ~initials:(E.initial_states ~n ~values)
        ~classify:(Valence.classify valence ~depth:(horizon + 1))
        ~succ_labelled ~decided:E.decided_vset
        ~round:(fun x -> x.E.round)
  | "smp" ->
      let module P = (val Layered_protocols.Sync_floodset.make ~t) in
      let module E = Layered_async_mp.Synchronic.Make (P) in
      let valence = Valence.create (E.valence_spec ~succ:E.smp) in
      let succ_labelled x =
        List.map
          (fun a ->
            (Format.asprintf "%a" Layered_async_mp.Synchronic.pp_action a, E.apply x a))
          (E.actions ~n)
      in
      build ~model ~n ~horizon ~length
        ~initials:(E.initial_states ~n ~values)
        ~classify:(Valence.classify valence ~depth:(horizon + 2))
        ~succ_labelled ~decided:E.decided_vset
        ~round:(fun x -> x.E.round)
  | "iis" ->
      let module P = (val Layered_protocols.Iis_voting.make ~horizon) in
      let module E = Layered_iis.Engine.Make (P) in
      let valence = Valence.create (E.valence_spec ~succ:E.layer) in
      let succ_labelled x =
        List.map
          (fun p -> (Format.asprintf "%a" Layered_iis.Engine.pp_partition p, E.apply x p))
          (Layered_iis.Engine.partitions ~n)
      in
      build ~model ~n ~horizon ~length
        ~initials:(E.initial_states ~n ~values)
        ~classify:(Valence.classify valence ~depth:(horizon + 1))
        ~succ_labelled ~decided:E.decided_vset
        ~round:(fun x -> x.E.round)
  | other -> invalid_arg (Printf.sprintf "Chains.run: unknown model %S" other)

let pp ppf t =
  Format.fprintf ppf "model=%s n=%d (protocol decides by its round %d)@." t.model t.n
    t.horizon;
  if t.lines = [] then Format.fprintf ppf "no bivalent initial state found@."
  else begin
    List.iter
      (fun l ->
        Format.fprintf ppf "round %d: %-14s bivalent  decided=%s%s@." l.round l.action
          l.decided
          (if l.violation then "  <-- AGREEMENT VIOLATED" else ""))
      t.lines;
    if not t.complete then
      Format.fprintf ppf "(chain stopped: no bivalent successor -- expected in the crash model at round t-1)@."
  end
