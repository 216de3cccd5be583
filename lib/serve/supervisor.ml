type config = {
  max_restarts : int;
  window_s : float;
  backoff_initial_s : float;
  backoff_max_s : float;
  seed : int;
  pid_file : string option;
  verbose : bool;
}

let default =
  {
    max_restarts = 5;
    window_s = 30.;
    backoff_initial_s = 0.1;
    backoff_max_s = 5.;
    seed = 0;
    pid_file = None;
    verbose = true;
  }

type outcome = { exit_code : int; restarts : int; gave_up : bool }

let exit_crash_loop = 1

(* An xorshift step over seed+attempt: enough spread to desynchronise a
   herd of restarting daemons, fully deterministic for the oracles. *)
let jitter ~seed ~attempt =
  let z = (seed * 0x9e3779b9) + attempt + 1 in
  let z = z lxor (z lsr 13) in
  let z = (z * 0x2545f491) land 0x3fffffff in
  float_of_int (z land 0xff) /. 255.

(* Exponential from [backoff_initial_s], capped at [backoff_max_s], the
   attempt's jitter scaling each delay into [50%, 100%] of nominal. *)
let backoff_s cfg ~attempt =
  let nominal =
    Float.min cfg.backoff_max_s
      (cfg.backoff_initial_s *. (2. ** float_of_int attempt))
  in
  nominal *. (0.5 +. (0.5 *. jitter ~seed:cfg.seed ~attempt))

let log cfg fmt =
  Format.(
    if cfg.verbose then eprintf fmt else ifprintf err_formatter fmt)

let write_pid_file cfg pid =
  Option.iter
    (fun path ->
      try
        let oc = open_out path in
        Printf.fprintf oc "%d\n" pid;
        close_out oc
      with Sys_error _ -> ())
    cfg.pid_file

(* [`Clean code] is a shutdown request, a signal drain, or a
   configuration error the respawn could only repeat.  The circuit
   breaker is a sliding window: more than [max_restarts] crashes within
   [window_s] and the supervisor stops feeding the failure. *)
let supervise cfg spawn =
  let crash_times = ref [] in
  let rec go ~attempt ~restarts =
    match spawn () with
    | `Clean code -> { exit_code = code; restarts; gave_up = false }
    | `Crashed reason ->
        let now = Unix.gettimeofday () in
        crash_times :=
          now :: List.filter (fun t -> now -. t <= cfg.window_s) !crash_times;
        if List.length !crash_times > cfg.max_restarts then begin
          log cfg
            "layered serve: crash loop (%d abnormal exits in %.0f s); giving up@."
            (List.length !crash_times) cfg.window_s;
          { exit_code = exit_crash_loop; restarts; gave_up = true }
        end
        else begin
          let delay = backoff_s cfg ~attempt in
          log cfg "layered serve: daemon died (%s); restarting in %.2f s@."
            reason delay;
          Unix.sleepf delay;
          go ~attempt:(attempt + 1) ~restarts:(restarts + 1)
        end
  in
  go ~attempt:0 ~restarts:0

(* ------------------------------------------------------------------ *)
(* Forked supervision (the CLI's --supervise)                          *)

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

type forwarding = { signal : int; previous : Sys.signal_behavior }

(* SIGTERM/SIGINT land on the supervisor (the pid the operator knows);
   forward them so the child drains and the supervisor sees a clean
   WEXITED 0 instead of mistaking the stop for a crash. *)
let install_forwarding child =
  List.filter_map
    (fun signal ->
      match
        Sys.signal signal
          (Sys.Signal_handle
             (fun s ->
               match Atomic.get child with
               | Some pid -> ( try Unix.kill pid s with Unix.Unix_error _ -> ())
               | None -> ()))
      with
      | previous -> Some { signal; previous }
      | exception (Invalid_argument _ | Sys_error _) -> None)
    [ Sys.sigterm; Sys.sigint ]

let restore_forwarding saved =
  List.iter
    (fun { signal; previous } ->
      try Sys.set_signal signal previous
      with Invalid_argument _ | Sys_error _ -> ())
    saved

let run_forked ?(config = default) run =
  let child : int option Atomic.t = Atomic.make None in
  let saved = install_forwarding child in
  Fun.protect
    ~finally:(fun () -> restore_forwarding saved)
    (fun () ->
      supervise config (fun () ->
          match Unix.fork () with
          | 0 ->
              (* the child must never fall back into the supervisor
                 loop: whatever happens, leave through [exit] *)
              let code =
                try run ()
                with e ->
                  Printf.eprintf "layered serve: daemon raised: %s\n%!"
                    (Printexc.to_string e);
                  Server.exit_crashed
              in
              Stdlib.exit code
          | pid -> (
              Atomic.set child (Some pid);
              write_pid_file config pid;
              let status = waitpid_retry pid in
              Atomic.set child None;
              match status with
              | Unix.WEXITED 0 -> `Clean 0
              | Unix.WEXITED 2 ->
                  (* bind/config failure: respawning can only repeat it *)
                  `Clean 2
              | Unix.WEXITED code -> `Crashed (Printf.sprintf "exit %d" code)
              | Unix.WSIGNALED s -> `Crashed (Printf.sprintf "signal %d" s)
              | Unix.WSTOPPED _ ->
                  (* only possible under WUNTRACED, which we do not pass *)
                  `Crashed "stopped")))
