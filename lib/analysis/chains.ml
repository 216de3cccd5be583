open Layered_core

type line = { round : int; action : string; decided : string; violation : bool }
type t = { model : string; n : int; horizon : int; complete : bool; lines : line list }

let run ~model ~n ~t ~length =
  let row = Models.get ~caller:"Chains.run" model in
  let module E = (val row.Models.engine ~t) in
  let horizon = t + 1 in
  let valence = Valence.create (E.valence_spec ~succ:E.layer) in
  let classify = Valence.classify valence ~depth:(row.Models.valence_depth ~t) in
  let length =
    match row.Models.chain_cap ~t with Some cap -> min length cap | None -> length
  in
  match
    Layering.find_bivalent ~classify
      (E.initial_states ~n ~values:[ Value.zero; Value.one ])
  with
  | None -> { model; n; horizon; complete = false; lines = [] }
  | Some x0 ->
      let chain = Layering.bivalent_chain_labelled ~classify ~succ:E.steps ~length x0 in
      let line_of action x =
        let d = E.decided_vset x in
        {
          round = E.round x;
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
