(** Differential and metamorphic oracles over the engines.

    Each oracle is a self-contained invariant check: it builds its own
    engines, runs a workload two ways (or once against an absolute
    expectation) and answers whether the invariant held.  The checks are
    useful twice over:

    - {b standalone} ([layered oracles], {!Chaos.rows}): cheap
      cross-checks of the runtime — serial and parallel BFS agree
      byte-for-byte, budgeted runs are prefixes of unbudgeted ones,
      valence classification is order-invariant, crashed workers are
      contained;
    - {b as chaos detectors} ({!Chaos}): an armed fault site must make at
      least one paired oracle fail, and a disarmed control run must pass.

    Every oracle is deterministic for a given [jobs] in its verdict; the
    [detail] string of a {e failing} verdict may carry timings or
    exception texts (failures abort byte-identical output anyway). *)

type verdict = { ok : bool; detail : string }
(** [detail] is ["ok"] when [ok], else a one-line diagnosis. *)

type t = {
  name : string;  (** e.g. ["serial-parallel/sync"]; unique in {!Chaos.oracles} *)
  what : string;  (** one-line statement of the invariant *)
  check : jobs:int -> verdict;
      (** runs the workload; [jobs] sizes the pools used by parallel
          legs (clamped to at least 2 so worker code paths are always
          exercised).  Must not leak exceptions in a fault-free run;
          under injection any escaping exception counts as a detection
          and is caught by the caller. *)
}

(** {1 Reference traversal}

    The serial BFS the frontier oracles and [test/] compare the pooled
    {!Layered_runtime.Frontier} against.  It keys states by their
    rendered [key] (canonical: equal keys iff equal states), so its
    identity is independent of the [Intern] ids the frontier dedups by,
    and it has no budget, no counters and no fault site. *)

(** [reachable ~succ ~key ~depth x] lists the distinct states reachable
    from [x] within [depth] applications of [succ], in BFS order ([x]
    first). *)
val reachable :
  succ:('a -> 'a list) -> key:('a -> string) -> depth:int -> 'a -> 'a list

(** The oracles over the analysis libraries and the runtime, in report
    order.  The serve daemon's follow them in {!Chaos.oracles}. *)
val all : t list

(** [with_tmp_dir f] runs [f] on a fresh, private directory under the
    system temp dir and removes it afterwards, whatever [f] does.  The
    name is retried until [mkdir] succeeds, and the cleanup never
    raises. *)
val with_tmp_dir : (string -> 'a) -> 'a
