module Pool = Layered_runtime.Pool
module Stats = Layered_runtime.Stats
module Fault = Layered_runtime.Fault

type config = {
  socket_path : string;
  jobs : int;
  queue_cap : int;
  max_heap_mb : int;
  request_timeout_s : float;
  per_client_cap : int;
  idle_timeout_s : float;
  spill_dir : string option;
  spill_every : int;
  spill_keep : int;
  stats : bool;
  install_signals : bool;
}

let default_config ~socket_path =
  {
    socket_path;
    jobs = 1;
    queue_cap = Admission.default.Admission.queue_cap;
    max_heap_mb = Admission.default.Admission.max_heap_mb;
    request_timeout_s = Admission.default.Admission.request_timeout_s;
    per_client_cap = Admission.default.Admission.per_client_cap;
    idle_timeout_s = 30.;
    spill_dir = None;
    spill_every = 32;
    spill_keep = Spill.keep_generations;
    stats = false;
    install_signals = true;
  }

(* Distinguished from every CLI exit code (0 ok, 1 failures, 2 usage,
   3 truncated): what an injected daemon crash "exits" with, so the
   in-process supervisor can tell a simulated death from a clean stop. *)
let exit_crashed = 70

exception Crashed = Dispatcher.Crashed

type client = {
  fd : Unix.file_descr;
  session : Session.t;
  conn : Dispatcher.conn;
  mutable last_data_s : float;
      (* when this connection last produced bytes; with a partial line
         pending, the slow-loris deadline counts from here *)
}

(* One response line.  Two fault sites live here, on the byte boundary
   between dispatcher and socket: [Serve_corrupt_response] flips the
   first byte just before the write; [Serve_torn_frame] emits only the
   first half of the frame and reports the client dead — the torn
   window a crash between two write(2)s leaves, which the client-side
   replay must absorb.  Partial writes loop, and EAGAIN (a nonblocking
   socket with a full buffer) waits for writability instead of killing
   the daemon, so large responses survive small socket buffers. *)
let write_response fd response =
  let line = Protocol.encode_response response ^ "\n" in
  let line =
    if Fault.point Fault.Serve_corrupt_response && String.length line > 0 then begin
      let b = Bytes.of_string line in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x20));
      Bytes.to_string b
    end
    else line
  in
  let len = String.length line in
  let rec go off =
    if off < len then
      match Unix.write_substring fd line off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ignore (Unix.select [] [ fd ] [] 1.0);
          go off
  in
  if Fault.point Fault.Serve_torn_frame then begin
    (try ignore (Unix.write_substring fd line 0 (max 1 (len / 2)) : int)
     with Unix.Unix_error _ -> ());
    false
  end
  else
    try
      go 0;
      true
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
      false

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

type disposition = { signal : int; previous : Sys.signal_behavior }

let install_stop_handlers ~install_signals stop =
  let set signal behavior =
    match Sys.signal signal behavior with
    | previous -> Some { signal; previous }
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  let stop_handler =
    Sys.Signal_handle (fun _ -> Atomic.set stop true)
  in
  List.filter_map Fun.id
    ((* writes to a client that vanished must surface as EPIPE, not kill
        the process *)
     set Sys.sigpipe Sys.Signal_ignore
    ::
    (if install_signals then
       [ set Sys.sigint stop_handler; set Sys.sigterm stop_handler ]
     else []))

let restore_handlers saved =
  List.iter
    (fun { signal; previous } ->
      try Sys.set_signal signal previous
      with Invalid_argument _ | Sys_error _ -> ())
    saved

let run cfg =
  let listener =
    try
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (* a stale socket file from a crashed daemon would make bind fail *)
      unlink_quiet cfg.socket_path;
      Unix.bind fd (Unix.ADDR_UNIX cfg.socket_path);
      Unix.listen fd 64;
      Some fd
    with Unix.Unix_error (e, _, _) ->
      Format.eprintf "layered serve: cannot listen on %s: %s@." cfg.socket_path
        (Unix.error_message e);
      None
  in
  match listener with
  | None -> 2
  | Some listener ->
      Stats.reset ();
      (* one worker per flight; slot 0, the select loop, computes nothing *)
      let pool = Pool.create ~jobs:(cfg.jobs + 1) () in
      let admission =
        {
          Admission.queue_cap = cfg.queue_cap;
          max_heap_mb = cfg.max_heap_mb;
          request_timeout_s = cfg.request_timeout_s;
          per_client_cap = cfg.per_client_cap;
        }
      in
      let ctx = Dispatch.create_ctx ~pool ~admission () in
      (* Warm-cache recovery: rehydrate both shared caches from the
         newest intact spill before the first request arrives. *)
      (match cfg.spill_dir with
      | Some dir ->
          let restored =
            Spill.load ~dir ~rcache:ctx.Dispatch.rcache
              ~vcache:ctx.Dispatch.vcache
          in
          if restored > 0 then
            Format.eprintf "layered serve: restored %d cache entries@."
              restored
      | None -> ());
      let served = ref 0 in
      let do_spill () =
        match cfg.spill_dir with
        | None -> ()
        | Some dir -> (
            match
              Spill.save ~keep:cfg.spill_keep ~dir
                ~rcache:ctx.Dispatch.rcache ~vcache:ctx.Dispatch.vcache ()
            with
            | Ok _ -> ()
            | Error e ->
                Format.eprintf "layered serve: cache spill failed: %s@." e)
      in
      (* Spill cadence runs per committed response, BEFORE the crash
         site and the write (inside Dispatcher.flush): the crash window
         the recovery oracles probe is "caches filled and durable,
         reply lost" — the replayed request must be answered from the
         reloaded cache, never recomputed. *)
      let disp =
        Dispatcher.create ~ctx
          ~on_commit:(fun () ->
            incr served;
            if cfg.spill_every > 0 && !served mod cfg.spill_every = 0 then
              do_spill ())
          ()
      in
      let saved =
        install_stop_handlers ~install_signals:cfg.install_signals
          ctx.Dispatch.stop
      in
      let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 16 in
      let stopping () = Atomic.get ctx.Dispatch.stop in
      let add_client client_fd =
        (* the cycle (conn needs fd's closures, client holds conn) is
           tied through [on_dead]: the dispatcher decides when the
           connection is dead — failed write, disconnect, or a flushed
           farewell — and this closure retires the fd exactly once *)
        let conn =
          Dispatcher.add_conn disp
            ~write:(fun resp -> write_response client_fd resp)
            ~on_dead:(fun () ->
              Hashtbl.remove clients client_fd;
              close_quiet client_fd)
        in
        Hashtbl.replace clients client_fd
          {
            fd = client_fd;
            session = Session.create ();
            conn;
            last_data_s = Unix.gettimeofday ();
          }
      in
      let handle_readable c =
        (* chaos site: the read path stalls before consuming bytes,
           as by a scheduling hiccup — the latency guard in the
           recovery oracles must notice *)
        if Fault.point Fault.Serve_stalled_client then
          Unix.sleepf Fault.stall_seconds;
        let buf = Bytes.create 4096 in
        match Unix.read c.fd buf 0 (Bytes.length buf) with
        | 0 -> Dispatcher.drop_conn disp c.conn
        | n ->
            c.last_data_s <- Unix.gettimeofday ();
            let lines, overflow =
              Session.feed c.session (Bytes.sub_string buf 0 n)
            in
            List.iter (Dispatcher.submit disp c.conn) lines;
            if overflow then
              (* line sync is lost; answer everything owed, then the
                 farewell, then hang up *)
              Dispatcher.finish_conn disp c.conn
                ~farewell:
                  (Protocol.Resp_error
                     {
                       id = None;
                       code = Protocol.Parse;
                       message =
                         Printf.sprintf "request line exceeds %d bytes"
                           Protocol.max_line_bytes;
                     })
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
            (* a signal landed mid-read; select will re-offer the fd *)
            ()
        | exception Unix.Unix_error (_, _, _) ->
            Dispatcher.drop_conn disp c.conn
      in
      (* Slow-loris guard: a connection holding half a request line
         past the idle deadline gets a structured [timeout] error —
         queued behind any answers it is still owed — and is dropped;
         one stalled client must not wedge the select loop for the
         others.  Connections idle with an {e empty} buffer are
         legitimate (a keep-alive client between requests) and are
         left alone. *)
      let reap_stalled () =
        if cfg.idle_timeout_s > 0. then begin
          let now = Unix.gettimeofday () in
          let stalled =
            Hashtbl.fold
              (fun _ c acc ->
                if
                  Session.pending_bytes c.session > 0
                  && now -. c.last_data_s > cfg.idle_timeout_s
                then c :: acc
                else acc)
              clients []
          in
          List.iter
            (fun c ->
              Dispatcher.finish_conn disp c.conn
                ~farewell:
                  (Protocol.Resp_error
                     {
                       id = None;
                       code = Protocol.Timeout;
                       message =
                         Printf.sprintf
                           "no complete request line within %g s"
                           cfg.idle_timeout_s;
                     }))
            stalled
        end
      in
      (* EINTR discipline, audited: [select] interrupted by a signal is
         an empty readiness set (the loop condition re-checks the stop
         flag); [accept] interrupted by a signal retries immediately —
         a SIGUSR1 (or a stop signal, which the retry guard notices)
         during accept must never kill the daemon or lose the pending
         connection.  Other accept errors (ECONNABORTED, EMFILE) drop
         that one connection attempt and keep serving. *)
      let rec accept_retry () =
        match Unix.accept listener with
        | r -> Some r
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
            if stopping () then None else accept_retry ()
        | exception Unix.Unix_error (_, _, _) -> None
      in
      let wake_r = Dispatcher.wakeup_fd disp in
      let serve_loop () =
        while not (stopping ()) do
          let fds =
            listener :: wake_r
            :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients []
          in
          (match Unix.select fds [] [] 0.2 with
          | readable, _, _ ->
              List.iter
                (fun fd ->
                  if fd = listener then (
                    match accept_retry () with
                    | Some (client_fd, _) -> add_client client_fd
                    | None -> ())
                  else
                    (* the wakeup pipe falls through here: pump below
                       drains it *)
                    match Hashtbl.find_opt clients fd with
                    | Some c -> handle_readable c
                    | None -> ())
                readable
          | exception Unix.Unix_error (Unix.EINTR, _, _) ->
              (* a signal landed; the loop condition notices the flag *)
              ());
          (* settle completed flights, start queued ones, flush replies *)
          Dispatcher.pump disp;
          reap_stalled ()
        done
      in
      Fun.protect
        ~finally:(fun () ->
          (* pool first, pipe second: a worker finishing during
             shutdown must find the wakeup pipe still open *)
          Pool.shutdown pool;
          Dispatcher.close disp;
          restore_handlers saved)
        (fun () ->
          match
            serve_loop ();
            (* every admitted request still gets its response: finish
               running and queued flights before the final spill *)
            Dispatcher.drain disp
          with
          | () ->
              let stopped_by_signal =
                stopping () && not (Dispatcher.shutdown_requested disp)
              in
              do_spill ();
              Hashtbl.iter (fun _ c -> close_quiet c.fd) clients;
              Hashtbl.reset clients;
              close_quiet listener;
              unlink_quiet cfg.socket_path;
              if cfg.stats || stopped_by_signal then
                Format.eprintf "%a" Stats.pp (Stats.snapshot ());
              0
          | exception Crashed ->
              (* Simulated whole-daemon death: do what the kernel would
                 do for a real one — close fds — and nothing a dead
                 process could not: no drain spill, no socket unlink, no
                 stats.  The supervisor treats [exit_crashed] as
                 abnormal and respawns. *)
              Hashtbl.iter (fun _ c -> close_quiet c.fd) clients;
              Hashtbl.reset clients;
              close_quiet listener;
              exit_crashed)
