(* Send-omission failures: why flooding breaks and coordinators survive
   (experiment E18 narrated).

   Run with:  dune exec examples/omission.exe

   The paper's introduction names send omissions as the second archetypal
   failure ("a faulty processor can fail to send messages altogether ...
   and thus behave as if it has crashed").  Unlike a crash, the faulty
   process keeps talking — which lets the adversary inject a stale value
   at the last moment.  We replay the exact counterexample the exhaustive
   checker finds against FloodSet, then watch the rotating-coordinator
   protocol absorb the same adversary. *)

open Layered_core

let () =
  Format.printf "=== FloodSet under send-omission (n=3, t=1) ===@.@.";
  let module P = (val Layered_protocols.Sync_floodset.make ~t:1) in
  let module E = Layered_sync.Engine.Make (P) in
  (* Inputs 0,1,1; the adversary marks p3... here the injector is p1
     itself holding the minimum.  Round 1: p1 marked faulty, sends to
     nobody.  Round 2 (decision round): p1 delivers only to p2. *)
  let x = E.initial ~inputs:[| 0; 1; 1 |] in
  let y = E.apply E.Omission x (E.omit [ { E.sender = 1; blocked = [ 2; 3 ] } ]) in
  let z =
    E.apply E.Omission y { E.marks = []; drops = [ { E.sender = 1; blocked = [ 3 ] } ] }
  in
  Format.printf "%a@." E.pp z;
  Format.printf
    "p2 received the late 0 and decided it; p3 never saw it.  Both are correct:@.";
  Format.printf "agreement is violated -- decided set %a.@.@." Vset.pp (E.decided_vset z);
  Format.printf
    "In the crash model this cannot happen: a process that omits is silenced@.";
  Format.printf "forever, so a last-round injection is impossible (cf. E7).@.@.";

  Format.printf "=== The rotating coordinator absorbs it (n=3, t=1) ===@.@.";
  let module C = (val Layered_protocols.Sync_coordinator.make ~t:1) in
  let module EC = Layered_sync.Engine.Make (C) in
  (* Same adversarial idea, against the coordinator: p1 faulty, hides its
     0 early and reveals it late. *)
  let x = EC.initial ~inputs:[| 0; 1; 1 |] in
  let drop blocked = { EC.marks = []; drops = [ { EC.sender = 1; blocked } ] } in
  let steps =
    [
      EC.omit [ { EC.sender = 1; blocked = [ 2; 3 ] } ];
      drop [ 3 ];
      drop [ 2 ];
      EC.omit [];
      drop [ 2; 3 ];
      EC.omit [];
    ]
  in
  let final = List.fold_left (EC.apply EC.Omission) x steps in
  Format.printf "%a@." EC.pp final;
  Format.printf "Non-faulty decisions: %a -- agreement holds.@.@." Vset.pp
    (EC.decided_vset final);
  Format.printf
    "The vote/claim/king structure is what saves it: a value is only locked@.";
  Format.printf
    "when n-t processes vote for it, two locks cannot disagree (the vote sets@.";
  Format.printf
    "would overlap), and omission faults can drop claims but never forge them.@.";
  Format.printf
    "E18 verifies this against EVERY omission adversary, and shows the n > 2t@.";
  Format.printf "requirement is tight (agreement fails at n = 2t).@."
