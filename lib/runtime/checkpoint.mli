(** Durable, crash-safe snapshots of in-flight runs.

    The budget layer makes infeasible instances degrade to partial
    results; this module makes those partials survive the process.  A
    checkpoint is a {e generation-numbered} file in a caller-chosen
    directory: [<name>.g000001.ckpt], [<name>.g000002.ckpt], ... — each
    save appends a new generation, never overwrites an old one.

    {b Format.}  [magic | body-length (u32 BE) | body CRC-32 (u32 BE) |
    body], where the body is [Marshal] of [(meta, payload)] and the
    payload is an opaque string the caller encodes (typically another
    [Marshal] of its own resume state).  Validation is layered: a torn
    write fails the length check, a flipped byte fails the CRC check,
    and [Marshal] only ever runs on a body both checks accepted.

    {b Atomicity.}  [save] writes to [<file>.tmp] and [Sys.rename]s it
    into place; readers never observe a half-visible generation under a
    POSIX rename.  Torn {e contents} (a crash mid-write that still left
    a file) are the CRC/length checks' job, exercised by the
    [Torn_checkpoint_write] and [Corrupt_checkpoint_crc] fault sites
    that live inside [save] itself.

    {b Rollback.}  {!load_latest} walks generations newest-first and
    returns the newest {e intact} one, reporting how many newer
    generations it had to reject — a corrupt latest generation rolls
    back to the previous good snapshot instead of crashing or resuming
    from garbage.  The [recovery/rollback] oracle holds this contract
    under fault injection. *)

(** Bumped whenever the format changes; snapshots from another version
    are rejected as not-intact rather than misread. *)
val current_version : int

type meta = {
  version : int;
  created_s : float;  (** wall-clock save time, [Unix.gettimeofday] scale *)
  progress : int;
      (** caller-defined progress marker (completed BFS levels, finished
          experiments, ...) — diagnostic only *)
  states_charged : int;
      (** budget states charged when the snapshot was taken; a resumed
          run re-charges these so caps trip at the same boundary *)
  deadline_remaining_s : float option;
      (** wall-clock budget left at save time; a resumed run restricts
          its deadline to this so interruption cannot buy extra time *)
  stats : Stats.snapshot;  (** runtime counters at save time *)
  fault : (string * int) option;
      (** armed fault site and seed, when the snapshot was written under
          chaos injection — lets a resumed run know it is tainted *)
  symmetry : bool;
      (** whether the traversal ran under symmetry reduction
          ([--symmetry]): its levels hold one representative per orbit,
          which an unreduced run cannot consume (and vice versa), so
          resume must {!Symmetry_mismatch}-refuse to cross the setting *)
}

(** Raised by consumers (e.g. [Sweep]) when a snapshot's {!meta}
    [symmetry] flag disagrees with the resuming run's — resuming across
    the setting would silently misinterpret the snapshot's levels.
    Carries both settings; registered with a [Printexc] printer. *)
exception Symmetry_mismatch of { saved : bool; requested : bool }

(** [make_meta ?budget ?symmetry ~progress ()] captures the current
    budget consumption, {!Stats} counters and armed fault into a [meta].
    [symmetry] (default [false]) records the run's symmetry-reduction
    setting. *)
val make_meta : ?budget:Budget.t -> ?symmetry:bool -> progress:int -> unit -> meta

type saved = { generation : int; bytes : int }

(** [save ~dir ~name ~meta ~payload] writes the next generation for
    [name] under [dir] (created if missing), atomically.  Returns the
    generation number and on-disk size. *)
val save : dir:string -> name:string -> meta:meta -> payload:string -> saved

type loaded = {
  meta : meta;
  payload : string;
  generation : int;  (** the generation actually loaded *)
  rejected : int;
      (** newer generations skipped because they were torn or corrupt *)
}

(** Newest intact generation for [name] under [dir], or [None] when no
    generation validates (or the directory does not exist).  Every
    skipped torn/corrupt generation is counted into the
    [checkpoint generations rejected] {!Stats} counter — rollback is
    surfaced, never silent. *)
val load_latest : dir:string -> name:string -> loaded option

(** Sorted generation numbers present on disk for [name]. *)
val generations : dir:string -> name:string -> int list

(** Every generation on disk paired with whether it validates — the
    recovery oracles' view of the checkpoint directory. *)
val scan : dir:string -> name:string -> (int * bool) list

(** [prune ~dir ~name ~keep] deletes every generation of [name] except
    the newest [keep] (clamped to at least 1, so rollback always has a
    predecessor to land on).  Returns the number of files removed.  A
    long-lived writer — the serve daemon spilling its caches every few
    responses — calls this after each save to keep the directory
    bounded. *)
val prune : dir:string -> name:string -> keep:int -> int
