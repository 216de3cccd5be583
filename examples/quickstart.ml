(* Quickstart: build a model, expand a layer, classify valences.

   Run with:  dune exec examples/quickstart.exe

   We instantiate the synchronous round engine with the classical FloodSet
   protocol for t = 1, restrict the scheduler to the S^t layering of
   Section 6 of the paper, and inspect the layered structure: the valence
   of each initial state, the shape of one layer, and its connectivity. *)

open Layered_core

(* 1. Pick a protocol (a first-class module) and build the model engine. *)
module P = (val Layered_protocols.Sync_floodset.make ~t:1)
module E = Layered_sync.Engine.Make (P)

let () =
  let n = 3 and t = 1 in
  Format.printf "FloodSet on the t-resilient synchronous model, n=%d t=%d@.@." n t;

  (* 2. The layering S^t: one fresh crash per layer while the budget
     lasts. *)
  let succ = E.layer (E.st ~t) in

  (* 3. A valence engine over the submodel R_{S^t}.  Depth t+2 covers the
     protocol's decision round, so every verdict is exact. *)
  let valence = Valence.create (E.valence_spec ~succ) in
  let classify x = Valence.classify valence ~depth:(t + 2) x in

  (* 4. Classify the 2^n initial states (the paper's Con_0). *)
  let initials = E.initial_states ~n ~values:[ Value.zero; Value.one ] in
  Format.printf "Initial states (inputs -> valence):@.";
  List.iteri
    (fun idx x ->
      (* Recover the input vector from the enumeration order. *)
      let bits = List.init n (fun i -> (idx lsr (n - 1 - i)) land 1) in
      Format.printf "  %s -> %a@."
        (String.concat "" (List.map string_of_int bits))
        Valence.pp_verdict (classify x))
    initials;

  (* 5. Lemma 3.6 in action: Con_0 is similarity connected and contains a
     bivalent state. *)
  Format.printf "@.Con_0 similarity connected: %b@."
    (Connectivity.connected ~rel:E.similar initials);
  let x0 = Option.get (Layering.find_bivalent ~classify initials) in
  Format.printf "Found a bivalent initial state.@.";

  (* 6. One layer of the submodel.  For t = 1 the crash budget is spent
     within this very layer, so the "arbitrary crash failure" display of
     Lemma 3.3 no longer applies to it and the layer is NOT valence
     connected -- which is precisely why bivalence survives only through
     round t-1 = 0 here (compare Lemma 6.1's bound), and why the mobile
     model of Section 5, whose adversary has a fresh failure every round,
     keeps its layers valence connected forever. *)
  let layer = succ x0 in
  Format.printf "@.|S^t(x0)| = %d distinct successors@." (List.length layer);
  Format.printf "layer valence connected: %b  (budget spent: expected false for t=1)@."
    (Connectivity.valence_connected
       ~vals:(fun x -> Valence.vals valence ~depth:(t + 2) x)
       layer);

  (* 7. Indeed every round-t state is already univalent: bivalence dies
     exactly where the paper says it must. *)
  let verdicts = List.map classify layer in
  let count v =
    List.length (List.filter (fun w -> Valence.verdict_equal v w) verdicts)
  in
  Format.printf "layer verdicts: %d x 0-univalent, %d x 1-univalent, %d x bivalent@."
    (count (Valence.Univalent Value.zero))
    (count (Valence.Univalent Value.one))
    (count Valence.Bivalent);

  (* 8. And the worst-case decision round is t+1 = 2 (Corollary 6.3),
     verified against every crash adversary. *)
  let result =
    Layered_analysis.Consensus_check.check
      ~protocol:(Layered_protocols.Sync_floodset.make ~t)
      ~failures:Layered_analysis.Consensus_check.Crash ~n ~t ~rounds:(t + 2) ()
  in
  Format.printf "@.Exhaustive verification: %a@." Layered_analysis.Consensus_check.pp_result
    result
