open Layered_core

module type ENGINE = sig
  include Engine_core.S

  val initial : inputs:Value.t array -> state
  val initial_states : n:int -> values:Value.t list -> state list
  val layer : state -> state list
  val layer_size : state -> int
  val steps : state -> (string * state) list
  val round : state -> int
end

type t = {
  name : string;
  renaming_closed : bool;
  engine : t:int -> (module ENGINE);
  valence_depth : t:int -> int;
  chain_cap : t:int -> int option;
}

let labelled pp apply actions x =
  List.map (fun a -> (Format.asprintf "%a" pp a, apply x a)) actions

(* FloodSet on the synchronous round engine, under [S_1] or [S^t]. *)
let floodset ~mobile ~t : (module ENGINE) =
  let module P = (val Layered_protocols.Sync_floodset.make ~t) in
  let module E = Layered_sync.Engine.Make (P) in
  let adv = if mobile then E.s1 else E.st ~t in
  (module struct
    include E

    let layer = E.layer adv
    let layer_size = E.layer_size adv

    (* An [S_1] omission to the empty prefix drops nothing, so it prints
       as the failure-free round; in [S^t] it is a declaration crash. *)
    let label (a : E.action) =
      if mobile then E.omit (List.filter (fun o -> o.E.blocked <> []) a.E.drops)
      else a

    let steps x =
      List.map
        (fun a ->
          (Format.asprintf "%a" E.pp_action (label a), E.apply adv.E.discipline x a))
        (E.actions_at adv x)

    let round x = x.E.round
  end)

let sm ~t : (module ENGINE) =
  let module P = (val Layered_protocols.Sm_voting.make ~horizon:(t + 1)) in
  let module E = Layered_async_sm.Engine.Make (P) in
  (module struct
    include E

    let layer = E.srw
    let layer_size = E.srw_size

    let steps x =
      labelled Layered_async_sm.Engine.pp_action E.apply (E.actions ~n:(E.n_of x)) x

    let round x = x.E.phase
  end)

let mp ~t : (module ENGINE) =
  let module P = (val Layered_protocols.Mp_floodset.make ~horizon:(t + 1)) in
  let module E = Layered_async_mp.Engine.Make (P) in
  (module struct
    include E

    let layer = E.sper
    let layer_size = E.sper_size

    let steps x =
      labelled Layered_async_mp.Engine.pp_schedule E.apply (E.schedules ~n:(E.n_of x)) x

    let round x = x.E.round
  end)

let smp ~t : (module ENGINE) =
  let module P = (val Layered_protocols.Sync_floodset.make ~t) in
  let module E = Layered_async_mp.Synchronic.Make (P) in
  (module struct
    include E

    let layer = E.smp
    let layer_size = E.smp_size

    let steps x =
      labelled Layered_async_mp.Synchronic.pp_action E.apply (E.actions ~n:(E.n_of x)) x

    let round x = x.E.round
  end)

let iis ~t : (module ENGINE) =
  let module P = (val Layered_protocols.Iis_voting.make ~horizon:(t + 1)) in
  let module E = Layered_iis.Engine.Make (P) in
  (module struct
    include E

    let steps x =
      labelled Layered_iis.Engine.pp_partition E.apply
        (Layered_iis.Engine.partitions ~n:(E.n_of x))
        x

    let round x = x.E.round
  end)

let row ?(renaming_closed = false) ?(valence_depth = fun ~t -> t + 2)
    ?(chain_cap = fun ~t:_ -> None) name engine =
  { name; renaming_closed; engine; valence_depth; chain_cap }

let all =
  [
    row "mobile" (floodset ~mobile:true);
    row "sync" (floodset ~mobile:false) ~chain_cap:(fun ~t -> Some t);
    row "sm" sm;
    row "mp" mp;
    row "smp" smp ~valence_depth:(fun ~t -> t + 3);
    row "iis" iis ~renaming_closed:true;
  ]

let names = List.map (fun r -> r.name) all
let find name = List.find_opt (fun r -> r.name = name) all

let get ~caller name =
  match find name with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "%s: unknown model %S" caller name)
