(** Round engine for the synchronous message-passing models of Sections 5
    and 6, functorised over a deterministic protocol.

    Each round is a message adversary's choice (Gafni-Losa): an
    {!Engine_intf.S.action} marks processes faulty and drops messages.
    Three failure disciplines say what a mark means:

    - {e mobile} ([Mobile], Section 5, model [M^mf]): in every round the
      environment may drop some processes' messages; nothing is
      recorded, nobody is ever "failed at" a finite state (the model
      displays no finite failure).
    - {e crash} ([Crash], Section 6): a marked process is recorded as
      failed and is silenced (sends nothing) in all later rounds — the
      classical crash model where a crash may lose an arbitrary subset
      of the final round's messages.
    - {e omission} ([Omission]): a marked process is recorded as faulty
      but keeps sending; in every round the adversary may drop any of
      its outgoing messages (send omission) or, in the general model,
      its incoming ones.  Crash runs are exactly the omission runs that
      drop everything from the first drop on, so the Section 6 lower
      bounds apply a fortiori (experiment E18).

    An {e adversary} pairs a discipline with the actions it may choose
    at a state.  The paper's layerings [S_1] and [S^t], the multi-omitter
    mobile layer and the exhaustive crash and omission adversaries of the
    protocol checker are all adversary values of this one engine; every
    layering is {!Engine_intf.S.layer} of one, and every exhaustive check
    is {!Engine_intf.S.walk} of one. *)

(** Named result signature of {!Make}, so instantiated engines can be
    packed as first-class modules (e.g. the bench harness's shared
    [make_sync_engine] helper). *)
module type S = Engine_intf.S

module Make (P : Protocol.S) : S with type local = P.local
