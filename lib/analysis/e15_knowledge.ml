open Layered_core
module Kripke = Layered_knowledge.Kripke

type measurements = {
  worlds : int;
  deciding_pairs : int;
  belief_failures : int;  (** deciding pairs lacking B_p(value-safety) *)
  knowledge_failures : int;  (** deciding pairs lacking K_p(value-safety) *)
  decision_worlds : int;  (** terminal worlds at the decision round *)
  cb_failures : int;  (** decision worlds lacking common belief of the value *)
  ck_failures : int;  (** decision worlds lacking plain common knowledge *)
}

let measure ~protocol ~n ~t ~decision_round =
  let module P = (val (protocol : (module Layered_sync.Protocol.S))) in
  let module E = Layered_sync.Engine.Make (P) in
  let rounds = t + 2 in
  let acc = ref [] in
  ignore
    (E.walk (E.crash ~max_new:2 ~t) ~rounds
       ~visit:(fun x -> acc := x :: !acc)
       (E.initial_states ~n ~values:[ Value.zero; Value.one ]));
  let worlds = !acc in
  let local_key i (x : E.state) = P.key x.E.locals.(i - 1) in
  let kr = Kripke.create ~n ~key:E.key ~local_key worlds in
  let alive i (x : E.state) = not x.E.failed.(i - 1) in
  (* phi v: every non-failed decided process decided v. *)
  let phi v =
    Kripke.prop_of kr (fun x ->
        let decs = E.decisions x in
        List.for_all
          (fun i -> match decs.(i - 1) with Some w -> Value.equal w v | None -> true)
          (E.nonfailed x))
  in
  let phis = [| phi Value.zero; phi Value.one |] in
  let deciding_pairs = ref 0
  and belief_failures = ref 0
  and knowledge_failures = ref 0 in
  let believes_cache =
    Array.init n (fun idx ->
        [| Kripke.believes kr (idx + 1) ~alive phis.(0);
           Kripke.believes kr (idx + 1) ~alive phis.(1) |])
  in
  let knows_cache =
    Array.init n (fun idx ->
        [| Kripke.knows kr (idx + 1) phis.(0); Kripke.knows kr (idx + 1) phis.(1) |])
  in
  List.iter
    (fun x ->
      let decs = E.decisions x in
      List.iter
        (fun p ->
          match decs.(p - 1) with
          | Some v ->
              incr deciding_pairs;
              if not (Kripke.holds_at kr believes_cache.(p - 1).(v) x) then
                incr belief_failures;
              if not (Kripke.holds_at kr knows_cache.(p - 1).(v) x) then
                incr knowledge_failures
          | None -> ())
        (E.nonfailed x))
    worlds;
  let cb = [| Kripke.common_belief kr ~members:E.nonfailed ~alive phis.(0);
              Kripke.common_belief kr ~members:E.nonfailed ~alive phis.(1) |] in
  let ck = [| Kripke.common kr ~members:E.nonfailed phis.(0);
              Kripke.common kr ~members:E.nonfailed phis.(1) |] in
  let decision_worlds = ref 0 and cb_failures = ref 0 and ck_failures = ref 0 in
  List.iter
    (fun x ->
      if E.terminal x && x.E.round = decision_round then
        match Vset.elements (E.decided_vset x) with
        | [ v ] ->
            incr decision_worlds;
            if not (Kripke.holds_at kr cb.(v) x) then incr cb_failures;
            if not (Kripke.holds_at kr ck.(v) x) then incr ck_failures
        | [] | _ :: _ :: _ -> ())
    worlds;
  {
    worlds = Kripke.world_count kr;
    deciding_pairs = !deciding_pairs;
    belief_failures = !belief_failures;
    knowledge_failures = !knowledge_failures;
    decision_worlds = !decision_worlds;
    cb_failures = !cb_failures;
    ck_failures = !ck_failures;
  }

let floodset_rows ~n ~t =
  let m =
    measure ~protocol:(Layered_protocols.Sync_floodset.make ~t) ~n ~t
      ~decision_round:(t + 1)
  in
  let params = Printf.sprintf "floodset n=%d t=%d (%d worlds)" n t m.worlds in
  [
    Report.check ~id:"E15" ~claim:"belief at decision" ~params
      ~expected:"every deciding process believes value-safety"
      ~measured:(Printf.sprintf "%d/%d failures" m.belief_failures m.deciding_pairs)
      (m.belief_failures = 0 && m.deciding_pairs > 0);
    Report.check ~id:"E15" ~claim:"knowledge gap" ~params
      ~expected:"some deciding process lacks knowledge (non-uniformity)"
      ~measured:(Printf.sprintf "%d/%d lack K" m.knowledge_failures m.deciding_pairs)
      (m.knowledge_failures > 0);
    Report.check ~id:"E15" ~claim:"common belief (DM)" ~params
      ~expected:"value is common belief at the simultaneous decision round"
      ~measured:(Printf.sprintf "%d/%d failures" m.cb_failures m.decision_worlds)
      (m.cb_failures = 0 && m.decision_worlds > 0);
    Report.check ~id:"E15" ~claim:"plain C too strong" ~params
      ~expected:"plain common knowledge fails at some decision world"
      ~measured:(Printf.sprintf "%d/%d lack C" m.ck_failures m.decision_worlds)
      (m.ck_failures > 0);
  ]

let early_rows ~n ~t =
  (* The early decider is not simultaneous: measure common belief at the
     worlds where everyone has decided as early as possible (round 1 is
     failure-free decision time). *)
  let m =
    measure ~protocol:(Layered_protocols.Sync_early.make ~t) ~n ~t ~decision_round:1
  in
  let params = Printf.sprintf "early n=%d t=%d (%d worlds)" n t m.worlds in
  [
    Report.check ~id:"E15" ~claim:"belief at decision" ~params
      ~expected:"every deciding process believes value-safety"
      ~measured:(Printf.sprintf "%d/%d failures" m.belief_failures m.deciding_pairs)
      (m.belief_failures = 0 && m.deciding_pairs > 0);
    Report.row ~id:"E15" ~claim:"staggered decisions" ~params
      ~expected:"non-simultaneous protocols need not attain common belief"
      ~measured:
        (Printf.sprintf "%d/%d round-1 decision worlds lack CB" m.cb_failures
           m.decision_worlds)
      Report.Info;
  ]

let run () = floodset_rows ~n:3 ~t:1 @ floodset_rows ~n:4 ~t:1 @ early_rows ~n:3 ~t:1
