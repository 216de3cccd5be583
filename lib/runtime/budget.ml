type reason = Deadline | States | Memory | Interrupted

exception Exhausted of reason

type truncation = { reason : reason; at_depth : int; states_seen : int }
type status = Complete | Truncated of truncation
type 'a outcome = { value : 'a; status : status }

type t = {
  deadline : float option Atomic.t;  (* absolute, Unix.gettimeofday scale *)
  max_states : int option;
  max_heap_words : int option;
  soft_heap_words : int option;  (* compaction watermark, below the cap *)
  cancelled : bool Atomic.t;
  states : int Atomic.t;
  probe : int Atomic.t;  (* check counter, for sampling the heap *)
  compacted : bool Atomic.t;  (* the once-per-budget Gc.compact was spent *)
  first_trip : reason option Atomic.t;  (* sticky: first reason observed *)
  parent : parent;  (* cancellation flows down the chain, never up *)
}

and parent = Root | Child of t

let word_bytes = Sys.word_size / 8

let create ?timeout_s ?max_states ?max_memory_mb ?soft_memory_mb () =
  (match timeout_s with
  | Some s when s < 0. -> invalid_arg "Budget.create: timeout_s must be >= 0"
  | _ -> ());
  (match max_states with
  | Some n when n < 1 -> invalid_arg "Budget.create: max_states must be >= 1"
  | _ -> ());
  (match max_memory_mb with
  | Some n when n < 1 -> invalid_arg "Budget.create: max_memory_mb must be >= 1"
  | _ -> ());
  (match soft_memory_mb with
  | Some n when n < 1 -> invalid_arg "Budget.create: soft_memory_mb must be >= 1"
  | _ -> ());
  let words mb = mb * 1024 * 1024 / word_bytes in
  {
    deadline = Atomic.make (Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s);
    max_states;
    max_heap_words = Option.map words max_memory_mb;
    soft_heap_words = Option.map words soft_memory_mb;
    cancelled = Atomic.make false;
    states = Atomic.make 0;
    probe = Atomic.make 0;
    compacted = Atomic.make false;
    first_trip = Atomic.make None;
    parent = Root;
  }

let child ?timeout_s ?max_states ?max_memory_mb ?soft_memory_mb parent =
  { (create ?timeout_s ?max_states ?max_memory_mb ?soft_memory_mb ()) with
    parent = Child parent;
  }

let cancel t = Atomic.set t.cancelled true

let rec is_cancelled t =
  Atomic.get t.cancelled
  || match t.parent with Root -> false | Child p -> is_cancelled p
let charge t n = if n <> 0 then ignore (Atomic.fetch_and_add t.states n)
let states_seen t = Atomic.get t.states

let deadline_remaining t =
  Option.map
    (fun d -> Float.max 0. (d -. Unix.gettimeofday ()))
    (Atomic.get t.deadline)

let restrict_deadline t ~remaining_s =
  if remaining_s < 0. then
    invalid_arg "Budget.restrict_deadline: remaining_s must be >= 0";
  let candidate = Unix.gettimeofday () +. remaining_s in
  let rec tighten () =
    let cur = Atomic.get t.deadline in
    let next =
      match cur with None -> candidate | Some d -> Float.min d candidate
    in
    if not (Atomic.compare_and_set t.deadline cur (Some next)) then tighten ()
  in
  tighten ()

(* The heap watermark costs a [Gc.quick_stat] (no heap walk, but not
   free either); sample it every 64th check. *)
let sample_mask = 63

(* Spend the budget's one [Gc.compact]: true iff this call performed it.
   The CAS makes the compaction a once-per-budget event even when worker
   domains race through a sampled probe together. *)
let compact_once t =
  Atomic.compare_and_set t.compacted false true
  && begin
       Gc.compact ();
       Stats.record_gc_compaction ();
       true
     end

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

(* A fragmented heap must not trip a run that would fit: on the first
   sampled crossing the budget spends its one compaction and only
   reports [Memory] if the live heap is still over the cap. *)
let over_hard_cap t cap =
  heap_words () > cap && ((not (compact_once t)) || heap_words () > cap)

let probe_limits t =
  if is_cancelled t then Some Interrupted
    (* chaos site: a probe claims cancellation nobody asked for — the
       clean-run-completes oracle must notice the lie *)
  else if Fault.point Fault.Spurious_cancel then Some Interrupted
  else
    match t.max_states with
    | Some cap when Atomic.get t.states > cap -> Some States
    | _ -> (
        let late =
          match Atomic.get t.deadline with
          | Some d -> Unix.gettimeofday () > d
          | None -> false
        in
        if late then Some Deadline
        else
          match t.max_heap_words with
          | Some cap
            when Atomic.fetch_and_add t.probe 1 land sample_mask = 0
                 && over_hard_cap t cap ->
              Some Memory
          | _ -> None)

(* The soft watermark, read directly at level boundaries, where one
   [quick_stat] is amortised over a whole level.  A crossing counts one
   soft event and spends the budget's one compaction; a heap still over
   after that (at every later crossing the once-per-budget compaction
   is already spent) is compacted here. *)
let relieve = function
  | Some ({ soft_heap_words = Some soft; _ } as t) when heap_words () > soft ->
      Stats.record_mem_soft_event ();
      ignore (compact_once t);
      if heap_words () > soft then begin
        Gc.compact ();
        Stats.record_gc_compaction ()
      end
  | _ -> ()

let exceeded t =
  match Atomic.get t.first_trip with
  | Some _ as r -> r
  | None -> (
      match probe_limits t with
      | None -> None
      | Some reason ->
          ignore (Atomic.compare_and_set t.first_trip None (Some reason));
          (* re-read: another domain may have won the race *)
          Atomic.get t.first_trip)

let check t = match exceeded t with Some r -> raise (Exhausted r) | None -> ()
let tripped t = Atomic.get t.first_trip

let truncated t ~reason ~at_depth =
  Truncated { reason; at_depth; states_seen = Atomic.get t.states }

let exceeded_opt = function None -> None | Some t -> exceeded t
let charge_opt b n = match b with None -> () | Some t -> charge t n
let check_opt = function None -> () | Some t -> check t

(* The previous handler must come back whatever [f] does, and the
   restore itself must never shadow [f]'s outcome (a raising finally
   would surface as [Fun.Finally_raised] instead): nested and repeated
   uses — e.g. [Pool.with_pool ~budget] inside a budgeted driver — then
   unwind to exactly the handler stack they started from. *)
let with_sigint t f =
  match Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> cancel t)) with
  | exception (Invalid_argument _ | Sys_error _) -> f ()
  | previous ->
      Fun.protect
        ~finally:(fun () ->
          try ignore (Sys.signal Sys.sigint previous)
          with Invalid_argument _ | Sys_error _ -> ())
        f

let reason_string = function
  | Deadline -> "deadline"
  | States -> "max-states"
  | Memory -> "max-mem"
  | Interrupted -> "interrupted"

let pp_reason ppf r = Format.pp_print_string ppf (reason_string r)

let pp_truncation ppf { reason; at_depth; states_seen } =
  Format.fprintf ppf "%a at depth %d after %d states" pp_reason reason at_depth
    states_seen
