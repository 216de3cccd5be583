open Layered_core

(* Anchors and bivalence are checked on the witnessed value sets: [vals]
   is exact for bivalence (two deciding futures were exhibited), and under
   Validity a unanimous-input state can only ever decide its input, so
   [vals = {v}] certifies v-univalence without needing every explored
   branch to terminate (which never happens in the asynchronous models,
   where one process may be excluded from every layer). *)
let check (model, label, n) =
  let t = 1 in
  let row = Models.get ~caller:"E2" model in
  let module E = (val row.Models.engine ~t) in
  let v = Valence.create (E.valence_spec ~succ:E.layer) in
  let vals x = Valence.vals v ~depth:(row.Models.valence_depth ~t) x in
  let initials = E.initial_states ~n ~values:[ Value.zero; Value.one ] in
  let similarity = Connectivity.connected_via ~graph:E.similarity_graph initials in
  let valence = Connectivity.valence_connected ~vals initials in
  let bivalent = List.exists (fun x -> Vset.cardinal (vals x) >= 2) initials in
  (* All-zeros 0-univalent and all-ones 1-univalent: [initial_states]
     enumerates assignments with all-zeros first and all-ones last. *)
  let anchors =
    match initials with
    | [] -> false
    | first :: _ ->
        let last = List.nth initials (List.length initials - 1) in
        Vset.equal (vals first) (Vset.singleton Value.zero)
        && Vset.equal (vals last) (Vset.singleton Value.one)
  in
  Report.check ~id:"E2" ~claim:"Lemma 3.6"
    ~params:(Printf.sprintf "%s n=%d" label n)
    ~expected:"Con_0 s-connected, v-connected, bivalent init, univalent corners"
    ~measured:
      (Printf.sprintf "s=%b v=%b bivalent=%b corners=%b" similarity valence bivalent
         anchors)
    (similarity && valence && bivalent && anchors)

(* (model row, printed label, n), each at t = 1. *)
let run () =
  List.map check
    [
      ("mobile", "mobile", 3);
      ("sync", "t-resilient", 3);
      ("sync", "t-resilient", 4);
      ("sm", "shared-memory", 3);
      ("mp", "message-passing", 3);
      ("smp", "synchronic-mp", 3);
    ]
