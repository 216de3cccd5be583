(* What do processes *know* when they decide?  (The Dwork-Moses reading
   of Section 6, experiment E15 narrated.)

   Run with:  dune exec examples/knowledge.exe

   We build the Kripke structure over every reachable state of FloodSet
   under every crash adversary (n=3, t=1), and interrogate it:

   - a process that decides 0 BELIEVES its value is safe (relativized to
     its own correctness), but does not KNOW it — we exhibit the world it
     cannot distinguish, in which it has crashed and the others decide 1;
   - at the simultaneous decision round the decided value is COMMON BELIEF
     among the non-failed, while plain common knowledge fails. *)

open Layered_core
module Kripke = Layered_knowledge.Kripke

module P = (val Layered_protocols.Sync_floodset.make ~t:1)
module E = Layered_sync.Engine.Make (P)

let () =
  let n = 3 and t = 1 in
  Format.printf "FloodSet, n=%d t=%d: the epistemics of deciding@.@." n t;

  (* Collect every reachable state under every crash adversary. *)
  let worlds = ref [] in
  ignore
    (E.walk (E.crash ~max_new:2 ~t) ~rounds:(t + 2)
       ~visit:(fun x -> worlds := x :: !worlds)
       (E.initial_states ~n ~values:[ Value.zero; Value.one ]));
  let worlds = !worlds in
  Format.printf "Explored %d distinct global states.@.@." (List.length worlds);

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

  (* Find a deciding (world, process) pair lacking knowledge of safety. *)
  let witness =
    List.find_map
      (fun x ->
        let decs = E.decisions x in
        List.find_map
          (fun p ->
            match decs.(p - 1) with
            | Some v when not (Kripke.holds_at kr (Kripke.knows kr p (phi v)) x) ->
                Some (x, p, v)
            | Some _ | None -> None)
          (E.nonfailed x))
      worlds
  in
  (match witness with
  | None -> Format.printf "(no knowledge gap found?!)@."
  | Some (x, p, v) ->
      Format.printf "Process %d has decided %a at this state:@.%a@." p Value.pp v E.pp x;
      Format.printf "It BELIEVES every non-failed decision is %a: %b@." Value.pp v
        (Kripke.holds_at kr (Kripke.believes kr p ~alive (phi v)) x);
      Format.printf "But it does not KNOW it -- it cannot distinguish:@.";
      let confusing =
        List.find
          (fun u -> not (Kripke.holds_at kr (phi v) u))
          (Kripke.indistinguishable kr p x)
      in
      Format.printf "%a@." E.pp confusing;
      Format.printf
        "...where process %d itself is failed and the survivors decide differently.@."
        p;
      Format.printf
        "This is non-uniform agreement, seen epistemically (cf. E7's uniform=false).@.@.");

  (* Common belief vs common knowledge at the decision round. *)
  let members = E.nonfailed in
  let decision_worlds =
    List.filter (fun x -> E.terminal x && x.E.round = t + 1) worlds
  in
  let counts op =
    List.length
      (List.filter
         (fun x ->
           match Vset.elements (E.decided_vset x) with
           | [ v ] -> Kripke.holds_at kr (op v) x
           | _ -> false)
         decision_worlds)
  in
  let cb v = Kripke.common_belief kr ~members ~alive (phi v) in
  let ck v = Kripke.common kr ~members (phi v) in
  Format.printf "At the %d simultaneous decision worlds (round %d):@."
    (List.length decision_worlds) (t + 1);
  Format.printf "  common BELIEF of the decided value holds at %d/%d@." (counts cb)
    (List.length decision_worlds);
  Format.printf "  plain common KNOWLEDGE holds at %d/%d@." (counts ck)
    (List.length decision_worlds);
  Format.printf
    "@.Simultaneous decision = common belief (Dwork-Moses); the relativization@.";
  Format.printf "to one's own correctness is what crash failures cost.@."
