type site =
  | Drop_successor
  | Duplicate_state
  | Corrupt_dedup_shard
  | Worker_raise
  | Worker_stall
  | Spurious_cancel
  | Flip_valence_bit
  | Torn_checkpoint_write
  | Corrupt_checkpoint_crc
  | Serve_handler_raise
  | Serve_corrupt_response
  | Serve_torn_frame
  | Serve_stalled_client
  | Serve_crash_before_reply
  | Serve_cancel_midflight
  | Serve_singleflight_leader_crash

exception Injected of site

let all =
  [
    Drop_successor; Duplicate_state; Corrupt_dedup_shard; Worker_raise;
    Worker_stall; Spurious_cancel; Flip_valence_bit; Torn_checkpoint_write;
    Corrupt_checkpoint_crc; Serve_handler_raise; Serve_corrupt_response;
    Serve_torn_frame; Serve_stalled_client; Serve_crash_before_reply;
    Serve_cancel_midflight; Serve_singleflight_leader_crash;
  ]

let site_name = function
  | Drop_successor -> "drop_successor"
  | Duplicate_state -> "duplicate_state"
  | Corrupt_dedup_shard -> "corrupt_dedup_shard"
  | Worker_raise -> "worker_raise"
  | Worker_stall -> "worker_stall"
  | Spurious_cancel -> "spurious_cancel"
  | Flip_valence_bit -> "flip_valence_bit"
  | Torn_checkpoint_write -> "torn_checkpoint_write"
  | Corrupt_checkpoint_crc -> "corrupt_checkpoint_crc"
  | Serve_handler_raise -> "serve_handler_raise"
  | Serve_corrupt_response -> "serve_corrupt_response"
  | Serve_torn_frame -> "serve_torn_frame"
  | Serve_stalled_client -> "serve_stalled_client"
  | Serve_crash_before_reply -> "serve_crash_before_reply"
  | Serve_cancel_midflight -> "serve_cancel_midflight"
  | Serve_singleflight_leader_crash -> "serve_singleflight_leader_crash"

let site_of_name s = List.find_opt (fun site -> site_name site = s) all
let pp_site ppf s = Format.pp_print_string ppf (site_name s)

(* Make an injected fault unmistakable in reports and exception text. *)
let () =
  Printexc.register_printer (function
    | Injected s -> Some (Printf.sprintf "Fault.Injected(%s)" (site_name s))
    | _ -> None)

let stall_seconds = 0.25

(* The one hot-path guard.  Everything below it is only read when armed. *)
let enabled = Atomic.make false
let armed_site : site option Atomic.t = Atomic.make None
let armed_seed = Atomic.make 0
let visit_count = Atomic.make 0
let fire_count = Atomic.make 0
let fire_at = Atomic.make 0

(* A splitmix-style finaliser: spreads consecutive seeds over the firing
   window.  Stays within OCaml's tagged-int range. *)
let mix z =
  let z = (z + 0x9e3779b9) land 0x3fffffff in
  let z = z lxor (z lsr 16) in
  let z = z * 0x21f0aaad land 0x3fffffff in
  let z = z lxor (z lsr 15) in
  z * 0x735a2d97 land 0x3fffffff

(* The firing window is deliberately tiny: a site visited >= 3 times
   during the armed run is certain to fire, so chaos workloads only need
   to guarantee a handful of visits. *)
let fire_window = 3

let arm ~seed site =
  Atomic.set armed_site (Some site);
  Atomic.set armed_seed seed;
  Atomic.set visit_count 0;
  Atomic.set fire_count 0;
  Atomic.set fire_at (mix seed mod fire_window);
  Atomic.set enabled true

let disarm () =
  Atomic.set enabled false;
  Atomic.set armed_site None

let armed () = if Atomic.get enabled then Atomic.get armed_site else None

let armed_with () =
  match armed () with
  | None -> None
  | Some site -> Some (site, Atomic.get armed_seed)

let point site =
  Atomic.get enabled
  && Atomic.get armed_site = Some site
  &&
  (* fetch_and_add hands every racing visit a distinct index, so exactly
     one visit matches [fire_at]: the fault fires once, at a
     deterministic visit ordinal, on whichever domain got there. *)
  let v = Atomic.fetch_and_add visit_count 1 in
  v = Atomic.get fire_at
  && begin
       ignore (Atomic.fetch_and_add fire_count 1);
       true
     end

let hits () = Atomic.get visit_count
let fired () = Atomic.get fire_count

let mangle_level level =
  if not (Atomic.get enabled) then level
  else
    List.concat_map
      (fun x ->
        if point Drop_successor then []
        else if point Duplicate_state then [ x; x ]
        else [ x ])
      level
