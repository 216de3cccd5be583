open Layered_core

type probe = {
  similarity : bool;
  valence : bool;
  bivalent : bool;
  anchors : bool;  (** all-zeros 0-univalent and all-ones 1-univalent *)
}

(* Anchors and bivalence are checked on the witnessed value sets: [vals]
   is exact for bivalence (two deciding futures were exhibited), and under
   Validity a unanimous-input state can only ever decide its input, so
   [vals = {v}] certifies v-univalence without needing every explored
   branch to terminate (which never happens in the asynchronous models,
   where one process may be excluded from every layer). *)
let probe (type a) ~(initials : a list) ~(graph : a Connectivity.graph_builder) ~vals =
  let similarity = Connectivity.connected_via ~graph initials in
  let valence = Connectivity.valence_connected ~vals initials in
  let bivalent = List.exists (fun x -> Vset.cardinal (vals x) >= 2) initials in
  let anchors =
    (* [initial_states] enumerates assignments with all-zeros first and
       all-ones last. *)
    match initials with
    | [] -> false
    | first :: _ ->
        let last = List.nth initials (List.length initials - 1) in
        Vset.equal (vals first) (Vset.singleton Value.zero)
        && Vset.equal (vals last) (Vset.singleton Value.one)
  in
  { similarity; valence; bivalent; anchors }

let row ~model ~n p =
  Report.check ~id:"E2" ~claim:"Lemma 3.6"
    ~params:(Printf.sprintf "%s n=%d" model n)
    ~expected:"Con_0 s-connected, v-connected, bivalent init, univalent corners"
    ~measured:
      (Printf.sprintf "s=%b v=%b bivalent=%b corners=%b" p.similarity p.valence p.bivalent
         p.anchors)
    (p.similarity && p.valence && p.bivalent && p.anchors)

let mobile ~n ~horizon =
  let module P = (val Layered_protocols.Sync_floodset.make ~t:(horizon - 1)) in
  let module E = Layered_sync.Engine.Make (P) in
  let succ = E.layer E.s1 in
  let v = Valence.create (E.valence_spec ~succ) in
  let depth = horizon + 1 in
  probe
    ~initials:(E.initial_states ~n ~values:[ Value.zero; Value.one ])
    ~graph:E.similarity_graph
    ~vals:(fun x -> Valence.vals v ~depth x)

let tresilient ~n ~t =
  let module P = (val Layered_protocols.Sync_floodset.make ~t) in
  let module E = Layered_sync.Engine.Make (P) in
  let succ = E.layer (E.st ~t) in
  let v = Valence.create (E.valence_spec ~succ) in
  let depth = t + 2 in
  probe
    ~initials:(E.initial_states ~n ~values:[ Value.zero; Value.one ])
    ~graph:E.similarity_graph
    ~vals:(fun x -> Valence.vals v ~depth x)

let shared_memory ~n ~horizon =
  let module P = (val Layered_protocols.Sm_voting.make ~horizon) in
  let module E = Layered_async_sm.Engine.Make (P) in
  let v = Valence.create (E.valence_spec ~succ:E.srw) in
  let depth = horizon + 1 in
  probe
    ~initials:(E.initial_states ~n ~values:[ Value.zero; Value.one ])
    ~graph:E.similarity_graph
    ~vals:(fun x -> Valence.vals v ~depth x)

let message_passing ~n ~horizon =
  let module P = (val Layered_protocols.Mp_floodset.make ~horizon) in
  let module E = Layered_async_mp.Engine.Make (P) in
  let v = Valence.create (E.valence_spec ~succ:E.sper) in
  let depth = horizon + 1 in
  probe
    ~initials:(E.initial_states ~n ~values:[ Value.zero; Value.one ])
    ~graph:E.similarity_graph
    ~vals:(fun x -> Valence.vals v ~depth x)

let synchronic_mp ~n ~horizon =
  let module P = (val Layered_protocols.Sync_floodset.make ~t:(horizon - 1)) in
  let module E = Layered_async_mp.Synchronic.Make (P) in
  let v = Valence.create (E.valence_spec ~succ:E.smp) in
  let depth = horizon + 2 in
  probe
    ~initials:(E.initial_states ~n ~values:[ Value.zero; Value.one ])
    ~graph:E.similarity_graph
    ~vals:(fun x -> Valence.vals v ~depth x)

let run () =
  [
    row ~model:"mobile" ~n:3 (mobile ~n:3 ~horizon:2);
    row ~model:"t-resilient" ~n:3 (tresilient ~n:3 ~t:1);
    row ~model:"t-resilient" ~n:4 (tresilient ~n:4 ~t:1);
    row ~model:"shared-memory" ~n:3 (shared_memory ~n:3 ~horizon:2);
    row ~model:"message-passing" ~n:3 (message_passing ~n:3 ~horizon:2);
    row ~model:"synchronic-mp" ~n:3 (synchronic_mp ~n:3 ~horizon:2);
  ]
