(* Watching the mobile-failure adversary keep a run bivalent forever
   (Corollary 5.2 / Santoro-Widmayer, via the paper's S1 layering).

   Run with:  dune exec examples/mobile_failure.exe

   FloodSet-with-deadline satisfies Decision (everyone decides by round 2)
   and Validity in M^mf.  The impossibility theorem says it therefore
   cannot satisfy Agreement; this example constructs, layer by layer, the
   adversarial run on which bivalence never dies — and shows the moment
   the forced decisions split. *)

open Layered_core

module P = (val Layered_protocols.Sync_floodset.make ~t:1)
module E = Layered_sync.Engine.Make (P)

let () =
  let n = 3 and horizon = 2 in
  Format.printf
    "Mobile-failure model M^mf, n=%d; protocol decides unconditionally at round %d@.@." n
    horizon;

  (* In M^mf nothing is ever recorded: the same process can be hit in one
     round and heard in the next. *)
  let succ = E.layer E.s1 in
  let valence = Valence.create (E.valence_spec ~succ) in
  let classify x = Valence.classify valence ~depth:(horizon + 1) x in

  let initials = E.initial_states ~n ~values:[ Value.zero; Value.one ] in
  let x0 = Option.get (Layering.find_bivalent ~classify initials) in

  let succ_labelled x = List.map (fun a -> (a, E.apply E.Mobile x a)) (E.actions_at E.s1 x) in
  let chain = Layering.bivalent_chain_labelled ~classify ~succ:succ_labelled ~length:8 x0 in
  assert chain.Layering.complete_l;

  Format.printf "The adversary's ever-bivalent run (action -> state):@.@.";
  let describe x =
    let decided = E.decided_vset x in
    let tag =
      if Vset.cardinal decided >= 2 then "  <-- AGREEMENT VIOLATED"
      else if not (Vset.is_empty decided) then "  (some processes decided)"
      else ""
    in
    Format.asprintf "%a  decided=%a%s" Valence.pp_verdict (classify x) Vset.pp decided tag
  in
  Format.printf "round 0: %-12s %s@." "(start)" (describe x0);
  List.iter
    (fun (action, x) ->
      (* In M^mf nothing is recorded, so an omission with no blocked
         destination is simply a clean round. *)
      let action = E.omit (List.filter (fun o -> o.E.blocked <> []) action.E.drops) in
      Format.printf "round %d: %-12s %s@." x.E.round
        (Format.asprintf "%a" E.pp_action action)
        (describe x))
    chain.Layering.steps;

  Format.printf
    "@.Every state above is bivalent: both 0- and 1-deciding futures exist.@.";
  Format.printf
    "Once the decision deadline passes, bivalence can only mean disagreement --@.";
  Format.printf
    "which is exactly why no protocol solves consensus in this model (Cor 5.2).@.";

  (* Show one concrete violating state in full. *)
  match
    List.find_map
      (fun (_, x) -> if Vset.cardinal (E.decided_vset x) >= 2 then Some x else None)
      chain.Layering.steps
  with
  | Some x -> Format.printf "@.A violating global state:@.%a@." E.pp x
  | None -> ()
