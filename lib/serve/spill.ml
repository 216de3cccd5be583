module Checkpoint = Layered_runtime.Checkpoint
module Valence_query = Layered_analysis.Valence_query

let name = "serve-cache"
let keep_generations = 2

(* Bumped when the payload shape changes: Marshal does not check types,
   so a version guard is the only thing standing between an old spill
   file and a segfault-grade misread.  Version 1 keyed valence entries
   by key string; version 2 by part strings. *)
let payload_version = 2

type payload = {
  version : int;
  rcache : (string * Cache.entry) list;
  vcache : Valence_query.spill;
}

let entry_count p =
  List.length p.rcache + Valence_query.spill_entries p.vcache

let save ?(keep = keep_generations) ~dir ~rcache ~vcache () =
  let p =
    {
      version = payload_version;
      rcache = Cache.export rcache;
      vcache = Valence_query.export_spill vcache;
    }
  in
  let entries = entry_count p in
  match
    Checkpoint.save ~dir ~name
      ~meta:(Checkpoint.make_meta ~progress:entries ())
      ~payload:(Marshal.to_string p [])
  with
  | (_ : Checkpoint.saved) ->
      ignore (Checkpoint.prune ~dir ~name ~keep : int);
      Ok entries
  | exception e ->
      (* a full disk or a vanished directory must not take the daemon
         down: serving warm beats spilling *)
      Error (Printexc.to_string e)

let load ~dir ~rcache ~vcache =
  match Checkpoint.load_latest ~dir ~name with
  | None -> 0
  | Some { Checkpoint.payload; _ } -> (
      match (Marshal.from_string payload 0 : payload) with
      | p when p.version = payload_version ->
          Cache.import rcache p.rcache;
          Valence_query.import_spill vcache p.vcache;
          entry_count p
      | _ -> 0
      | exception _ ->
          (* an unreadable spill is a cold start, not a crash *)
          0)
