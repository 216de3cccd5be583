open Layered_core

type t = { label : string; mem0 : Simplex.t -> bool; mem1 : Simplex.t -> bool }

let of_complexes ?(label = "covering") c0 c1 =
  { label; mem0 = (fun s -> Complex.mem s c0); mem1 = (fun s -> Complex.mem s c1) }

let valence_spec cover ~output (spec : 'a Valence.spec) =
  let decided x =
    if spec.terminal x then begin
      let out = output x in
      let s = if cover.mem0 out then Vset.singleton Value.zero else Vset.empty in
      if cover.mem1 out then Vset.add Value.one s else s
    end
    else Vset.empty
  in
  { spec with decided }

let is_covering cover outputs =
  match outputs with
  | [] -> false
  | _ :: _ ->
      List.for_all (fun s -> cover.mem0 s || cover.mem1 s) outputs
      && List.exists cover.mem0 outputs
      && List.exists cover.mem1 outputs
