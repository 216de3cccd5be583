(* Version 2: meta grew the [symmetry] flag.  Version 3: the [stats]
   snapshot lost its two statevec counters.  Version 4: it lost the
   seven counters of the frontier's disk tier.  Version 5: the frontier
   snapshot lost its committed dedup keys (a resume re-seeds them from
   the snapshot's levels).  Older snapshots are
   rejected as not-intact (fresh start) rather than misread — the first
   meta field is the version int in every layout, so the check below
   reads clean even against an old body. *)
let current_version = 5
let magic = "LAYCKPT1"

type meta = {
  version : int;
  created_s : float;
  progress : int;
  states_charged : int;
  deadline_remaining_s : float option;
  stats : Stats.snapshot;
  fault : (string * int) option;
  symmetry : bool;
}

exception Symmetry_mismatch of { saved : bool; requested : bool }

let () =
  Printexc.register_printer (function
    | Symmetry_mismatch { saved; requested } ->
        Some
          (Printf.sprintf
             "checkpoint symmetry mismatch: snapshot was written with \
              --symmetry %s but this run has --symmetry %s (rerun with the \
              matching flag or remove the checkpoint directory)"
             (if saved then "on" else "off")
             (if requested then "on" else "off"))
    | _ -> None)

type saved = { generation : int; bytes : int }
type loaded = { meta : meta; payload : string; generation : int; rejected : int }

let make_meta ?budget ?(symmetry = false) ~progress () =
  {
    version = current_version;
    created_s = Unix.gettimeofday ();
    progress;
    states_charged =
      (match budget with Some b -> Budget.states_seen b | None -> 0);
    deadline_remaining_s =
      (match budget with Some b -> Budget.deadline_remaining b | None -> None);
    stats = Stats.snapshot ();
    fault =
      Option.map
        (fun (site, seed) -> (Fault.site_name site, seed))
        (Fault.armed_with ());
    symmetry;
  }

(* ---- CRC-32 (IEEE 802.3, table-driven; no external deps) ------------- *)

(* Built eagerly: forcing a [lazy] table from two domains at once (a
   parallel [--resume] loading its first checkpoints) raises
   [CamlinternalLazy.Undefined]. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := crc_table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

(* ---- On-disk format -------------------------------------------------- *)
(* magic(8) | body length u32 BE | body CRC-32 u32 BE | body.
   The body is [Marshal.to_string (meta, payload)].  A torn write fails
   the length check; a flipped body byte fails the CRC check; Marshal is
   only ever run on a body both checks accepted. *)

let header_bytes = String.length magic + 8

let add_u32 buf n =
  for shift = 3 downto 0 do
    Buffer.add_char buf (Char.chr ((n lsr (shift * 8)) land 0xff))
  done

let get_u32 s off =
  let b i = Char.code s.[off + i] in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

let file_name name generation = Printf.sprintf "%s.g%06d.ckpt" name generation
let path ~dir ~name generation = Filename.concat dir (file_name name generation)

let rec ensure_dir dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let generations ~dir ~name =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      let prefix = name ^ ".g" and suffix = ".ckpt" in
      Array.to_list entries
      |> List.filter_map (fun entry ->
             if
               String.starts_with ~prefix entry
               && Filename.check_suffix entry suffix
             then
               int_of_string_opt
                 (String.sub entry (String.length prefix)
                    (String.length entry - String.length prefix
                   - String.length suffix))
             else None)
      |> List.sort_uniq compare

let save ~dir ~name ~meta ~payload =
  ensure_dir dir;
  let generation =
    match List.rev (generations ~dir ~name) with
    | latest :: _ -> latest + 1
    | [] -> 1
  in
  let body = Marshal.to_string (meta, payload) [] in
  let crc = crc32 body in
  (* chaos site: a payload byte flips after the checksum was computed, so
     the stored CRC vouches for bytes that are no longer there *)
  let body =
    if Fault.point Fault.Corrupt_checkpoint_crc && String.length body > 0 then begin
      let b = Bytes.of_string body in
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      Bytes.to_string b
    end
    else body
  in
  let buf = Buffer.create (String.length body + header_bytes) in
  Buffer.add_string buf magic;
  add_u32 buf (String.length body);
  add_u32 buf crc;
  Buffer.add_string buf body;
  let data = Buffer.contents buf in
  (* chaos site: the write dies halfway — as a crash or full disk would
     leave it — and the torn file still gets renamed into place *)
  let data =
    if Fault.point Fault.Torn_checkpoint_write then
      String.sub data 0 (String.length data / 2)
    else data
  in
  let tmp = path ~dir ~name generation ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try output_string oc data
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  Sys.rename tmp (path ~dir ~name generation);
  { generation; bytes = String.length data }

let read_file p =
  match open_in_bin p with
  | exception Sys_error _ -> None
  | ic ->
      let len = in_channel_length ic in
      let data = really_input_string ic len in
      close_in_noerr ic;
      Some data

let decode data =
  if String.length data < header_bytes then None
  else if String.sub data 0 (String.length magic) <> magic then None
  else
    let body_len = get_u32 data (String.length magic) in
    let crc = get_u32 data (String.length magic + 4) in
    if String.length data <> header_bytes + body_len then None
    else
      let body = String.sub data header_bytes body_len in
      if crc32 body <> crc then None
      else
        match (Marshal.from_string body 0 : meta * string) with
        | meta, payload when meta.version = current_version ->
            Some (meta, payload)
        | _ | (exception _) -> None

let load_generation ~dir ~name generation =
  Option.bind (read_file (path ~dir ~name generation)) decode

let scan ~dir ~name =
  List.map
    (fun g -> (g, Option.is_some (load_generation ~dir ~name g)))
    (generations ~dir ~name)

let load_latest ~dir ~name =
  let rec newest_intact rejected = function
    | [] ->
        Stats.add_ckpt_rejected rejected;
        None
    | generation :: older -> (
        match load_generation ~dir ~name generation with
        | Some (meta, payload) ->
            Stats.add_ckpt_rejected rejected;
            Some { meta; payload; generation; rejected }
        | None -> newest_intact (rejected + 1) older)
  in
  newest_intact 0 (List.rev (generations ~dir ~name))

let prune ~dir ~name ~keep =
  let keep = max 1 keep in
  let gens = List.rev (generations ~dir ~name) in
  let stale = List.filteri (fun i _ -> i >= keep) gens in
  List.fold_left
    (fun deleted g ->
      match Sys.remove (path ~dir ~name g) with
      | () -> deleted + 1
      | exception Sys_error _ -> deleted)
    0 stale
