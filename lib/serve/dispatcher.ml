module Budget = Layered_runtime.Budget
module Pool = Layered_runtime.Pool
module Stats = Layered_runtime.Stats
module Fault = Layered_runtime.Fault

(* Raised by the crash-before-reply fault site on the commit path: the
   in-process stand-in for the whole daemon dying between cache fill
   and response write.  Propagates out of [pump]/[drain] to the server,
   which exits the incarnation abnormally. *)
exception Crashed

type conn = {
  conn_id : int;
  parent : Budget.t;
      (* the connection's fault-domain root: every admitted request
         gets a child of this token, so one [cancel] on disconnect
         trips exactly this connection's in-flight work *)
  write : Protocol.response -> bool;
  on_dead : unit -> unit;
  mutable next_seq : int;  (* sequence number for the next request *)
  mutable next_write : int;  (* next sequence number to flush *)
  ready : (int, Protocol.response) Hashtbl.t;
      (* out-of-order completions parked until their FIFO turn *)
  mutable inflight : int;  (* admitted compute requests awaiting reply *)
  mutable alive : bool;
  mutable closing : bool;  (* farewell queued; drop once fully flushed *)
}

(* One admitted request: where its reply goes and the budget token that
   is its fault domain. *)
type member = {
  m_conn : conn;
  m_seq : int;
  m_id : int option;
  m_budget : Budget.t;
}

(* One in-flight (or queued) computation.  Identical admitted requests
   coalesce here: the leader's budget drives the walk, waiters receive
   the leader's result — or, if the leader is cancelled or crashes, a
   waiter is promoted and the computation re-runs under the waiter's
   own budget (the cancellation-safe retry). *)
type flight = {
  key : string;
  f_req : Protocol.request;
  mutable leader : member;
  mutable waiters : member list;  (* newest first *)
}

type outcome = F_done of int * string | F_raised of string

type t = {
  ctx : Dispatch.ctx;
  on_commit : unit -> unit;
      (* the server's served-counter / spill-cadence hook, called once
         per flushed response, before the crash site and the write *)
  slots : int;  (* max concurrently-running flights *)
  mutable running : int;
  backlog : flight Admission.Backlog.t;
  flights : (string, flight) Hashtbl.t;  (* cache key -> flight *)
  completions : (string * outcome) Queue.t;  (* worker -> loop thread *)
  cmutex : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable next_conn_id : int;
  mutable shutdown_requested : bool;
}

let create ~ctx ~on_commit () =
  if Pool.jobs ctx.Dispatch.pool < 2 then
    invalid_arg "Dispatcher.create: the pool needs a worker (jobs >= 2)";
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  {
    ctx;
    on_commit;
    (* the select loop owns slot 0; compute runs on the workers, one
       flight each *)
    slots = Pool.jobs ctx.Dispatch.pool - 1;
    running = 0;
    backlog = Admission.Backlog.create ();
    flights = Hashtbl.create 32;
    completions = Queue.create ();
    cmutex = Mutex.create ();
    wake_r;
    wake_w;
    next_conn_id = 0;
    shutdown_requested = false;
  }

let wakeup_fd t = t.wake_r
let shutdown_requested t = t.shutdown_requested

let close t =
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()

let add_conn t ~write ~on_dead =
  let id = t.next_conn_id in
  t.next_conn_id <- id + 1;
  {
    conn_id = id;
    parent = Budget.create ();
    write;
    on_dead;
    next_seq = 0;
    next_write = 0;
    ready = Hashtbl.create 8;
    inflight = 0;
    alive = true;
    closing = false;
  }

(* ------------------------------------------------------------------ *)
(* Reply path: per-connection FIFO                                    *)

(* Flush every response whose FIFO turn has come.  The commit order per
   connection is the request order, whatever order computations finish
   in — the reply-ordering half of the determinism obligation.  May
   raise [Crashed] (the injected whole-daemon death). *)
let rec flush t c =
  if c.alive then begin
    match Hashtbl.find_opt c.ready c.next_write with
    | Some resp ->
        Hashtbl.remove c.ready c.next_write;
        c.next_write <- c.next_write + 1;
        (* Spill cadence BEFORE the crash site BEFORE the write: the
           crash window the recovery oracles probe is "caches filled
           and durable, reply lost". *)
        t.on_commit ();
        if Fault.point Fault.Serve_crash_before_reply then raise Crashed;
        if c.write resp then flush t c else drop_conn t c
    | None ->
        (* a closing connection (reaped, oversized line) drops once its
           whole FIFO — in-flight answers included — has been flushed *)
        if c.closing && c.next_write = c.next_seq then drop_conn t c
  end

and finish t c seq resp =
  if c.alive then begin
    Hashtbl.replace c.ready seq resp;
    flush t c
  end

(* Resolve one admitted member with a response.  [inflight] settles
   here exactly once per member, whatever path resolved it. *)
and resolve t (m : member) resp =
  if m.m_conn.alive then begin
    m.m_conn.inflight <- m.m_conn.inflight - 1;
    finish t m.m_conn m.m_seq resp
  end

and resolve_cancelled t m =
  Stats.record_request_cancelled ();
  resolve t m
    (Protocol.Resp_error
       {
         id = m.m_id;
         code = Protocol.Cancelled;
         message = "request cancelled before completion";
       })

(* The connection is gone (EOF, read error, failed write, or a flushed
   farewell).  Cancel its fault-domain root — every admitted child
   budget trips — purge its queued work, and promote flights it led
   whose waiters belong to other, still-live connections. *)
and drop_conn t c =
  if c.alive then begin
    c.alive <- false;
    Budget.cancel c.parent;
    Hashtbl.reset c.ready;
    (* drop this connection's waiters from every flight *)
    Hashtbl.iter
      (fun _ fl ->
        let mine, others =
          List.partition (fun m -> m.m_conn == c) fl.waiters
        in
        List.iter (fun _ -> Stats.record_request_cancelled ()) mine;
        fl.waiters <- others)
      t.flights;
    (* flights this connection leads that are still queued: re-lead
       them from a surviving waiter or forget them.  Running flights
       stay; their completion sees the cancelled leader and promotes
       then. *)
    let led = Admission.Backlog.remove_client t.backlog ~client:c.conn_id in
    List.iter
      (fun fl ->
        Stats.record_request_cancelled ();
        promote_or_forget t fl)
      led;
    c.on_dead ()
  end

(* Hand a queued-or-failed flight to its oldest surviving waiter, or
   drop it from the table.  Cancelled waiters resolve as [cancelled]
   on the way. *)
and promote_or_forget t fl =
  match List.rev fl.waiters with
  | [] -> Hashtbl.remove t.flights fl.key
  | oldest :: rest -> (
      fl.waiters <- List.rev rest;
      if (not oldest.m_conn.alive) || Budget.is_cancelled oldest.m_budget then begin
        if oldest.m_conn.alive then resolve_cancelled t oldest
        else Stats.record_request_cancelled ();
        promote_or_forget t fl
      end
      else begin
        fl.leader <- oldest;
        Admission.Backlog.push t.backlog ~client:oldest.m_conn.conn_id
          ~deadline:(deadline_of oldest.m_budget) fl
      end)

and deadline_of budget =
  match Budget.deadline_remaining budget with
  | None -> infinity
  | Some s -> Unix.gettimeofday () +. s

(* ------------------------------------------------------------------ *)
(* Scheduling                                                         *)

let enqueue_completion t key outcome =
  Mutex.lock t.cmutex;
  Queue.add (key, outcome) t.completions;
  Mutex.unlock t.cmutex;
  (* poke the select loop; EPIPE/EBADF after shutdown is harmless *)
  try ignore (Unix.write_substring t.wake_w "x" 0 1 : int)
  with Unix.Unix_error _ -> ()

let take_completion t =
  Mutex.lock t.cmutex;
  let c = Queue.take_opt t.completions in
  Mutex.unlock t.cmutex;
  c

let start_flight t fl =
  t.running <- t.running + 1;
  let budget = fl.leader.m_budget in
  let req = fl.f_req in
  let key = fl.key in
  Pool.post t.ctx.Dispatch.pool
    ~run:(fun () ->
      let outcome =
        match Dispatch.execute_concurrent t.ctx ~budget req with
        | exit_code, output -> F_done (exit_code, output)
        | exception e -> F_raised (Printexc.to_string e)
      in
      enqueue_completion t key outcome)
    ~fail:(fun e -> enqueue_completion t key (F_raised (Printexc.to_string e)))

let rec schedule t =
  if t.running < t.slots then
    match Admission.Backlog.pop t.backlog with
    | Some fl ->
        start_flight t fl;
        schedule t
    | None -> ()

(* ------------------------------------------------------------------ *)
(* Completion processing                                              *)

let settle t key outcome =
  t.running <- t.running - 1;
  match Hashtbl.find_opt t.flights key with
  | None -> ()  (* unreachable: running flights stay in the table *)
  | Some fl -> (
      let leader = fl.leader in
      let leader_cancelled =
        (not leader.m_conn.alive) || Budget.is_cancelled leader.m_budget
      in
      match outcome with
      | F_done (exit_code, output) when not leader_cancelled ->
          (* Valid result: commit the cache fill before any reply, so
             replies and cache state can never disagree.  Truncated
             (exit 3) results are this request's deadline luck and are
             never cached. *)
          if exit_code <> Dispatch.exit_trunc then
            Cache.add t.ctx.Dispatch.rcache key { Cache.exit_code; output };
          let waiters = List.rev fl.waiters in
          Hashtbl.remove t.flights key;
          resolve t leader
            (Protocol.Resp_ok { id = leader.m_id; exit_code; output });
          List.iter
            (fun w ->
              if (not w.m_conn.alive) || Budget.is_cancelled w.m_budget then begin
                if w.m_conn.alive then resolve_cancelled t w
                else Stats.record_request_cancelled ()
              end
              else
                resolve t w
                  (Protocol.Resp_ok { id = w.m_id; exit_code; output }))
            waiters
      | F_done _ | F_raised _ ->
          (* The leader was cancelled (its result, computed under a
             tripped token, is degraded and must be discarded) or the
             handler raised.  Fail only the leader; surviving waiters
             re-run under their own budget. *)
          (if leader.m_conn.alive then
             if Budget.is_cancelled leader.m_budget then
               resolve_cancelled t leader
             else
               match outcome with
               | F_raised message ->
                   resolve t leader
                     (Protocol.Resp_error
                        { id = leader.m_id; code = Protocol.Internal; message })
               | F_done _ -> resolve_cancelled t leader
           else Stats.record_request_cancelled ());
          promote_or_forget t fl)

(* Drain the wakeup pipe (edge coalescing: one select wakeup may cover
   many completions). *)
let drain_wake t =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  go ()

let rec pump t =
  drain_wake t;
  match take_completion t with
  | Some (key, outcome) ->
      settle t key outcome;
      pump t
  | None -> schedule t

let idle t =
  t.running = 0
  && Admission.Backlog.length t.backlog = 0
  &&
  (Mutex.lock t.cmutex;
   let empty = Queue.is_empty t.completions in
   Mutex.unlock t.cmutex;
   empty)

let drain t =
  pump t;
  while not (idle t) do
    (match Unix.select [ t.wake_r ] [] [] 0.05 with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    pump t
  done

(* ------------------------------------------------------------------ *)
(* Submission                                                         *)

let overloaded id reason retry_after_s =
  Protocol.Resp_overloaded { id; reason; retry_after_s = Some retry_after_s }

(* Evicted members are answered [overloaded `Queue]: from the client's
   side a fair-share eviction is indistinguishable from never having
   been admitted, so the resilient client's retry-overloaded path just
   works. *)
let shed_flight t fl ~retry_after_s =
  Hashtbl.remove t.flights fl.key;
  let members = fl.leader :: List.rev fl.waiters in
  List.iter
    (fun m ->
      Budget.cancel m.m_budget;
      resolve t m (overloaded m.m_id `Queue retry_after_s))
    members

let submit_admitted t c seq id req budget =
  (* chaos site: this request's own token is cancelled at dispatch
     time, as by a disconnect racing the request — exactly one request
     must degrade to [cancelled]; the daemon, the caches and every
     other request must not notice *)
  if Fault.point Fault.Serve_cancel_midflight then Budget.cancel budget;
  if Budget.is_cancelled budget then begin
    (* tripped before any work — the cache-hit and single-flight paths
       must not mask a cancellation, or the chaos cell goes blind *)
    Stats.record_request_cancelled ();
    finish t c seq
      (Protocol.Resp_error
         {
           id;
           code = Protocol.Cancelled;
           message = "request cancelled before completion";
         })
  end
  else begin
  let m = { m_conn = c; m_seq = seq; m_id = id; m_budget = budget } in
  let key =
    match Protocol.cache_key req with
    | Some key -> key
    | None -> assert false (* control requests never reach admission *)
  in
  match Hashtbl.find_opt t.flights key with
  | Some fl ->
      (* single-flight: coalesce onto the identical in-flight request *)
      Stats.record_singleflight_join ();
      c.inflight <- c.inflight + 1;
      fl.waiters <- m :: fl.waiters
  | None -> (
      match Cache.find t.ctx.Dispatch.rcache key with
      | Some { Cache.exit_code; output } ->
          finish t c seq (Protocol.Resp_ok { id; exit_code; output })
      | None ->
          c.inflight <- c.inflight + 1;
          let fl = { key; f_req = req; leader = m; waiters = [] } in
          Hashtbl.add t.flights key fl;
          Admission.Backlog.push t.backlog ~client:c.conn_id
            ~deadline:(deadline_of budget) fl)
  end

let submit t c line =
  if c.alive && not c.closing then begin
    let seq = c.next_seq in
    c.next_seq <- seq + 1;
    match Protocol.decode_request line with
    | Error (id, code, message) ->
        finish t c seq (Protocol.Resp_error { id; code; message })
    | Ok (id, Protocol.Stats_query) ->
        (* control requests bypass admission and the result cache:
           stats must answer even when compute is shedding *)
        let output = Format.asprintf "%a" Stats.pp (Stats.snapshot ()) in
        finish t c seq (Protocol.Resp_ok { id; exit_code = 0; output })
    | Ok (id, Protocol.Shutdown) ->
        t.shutdown_requested <- true;
        Atomic.set t.ctx.Dispatch.stop true;
        finish t c seq
          (Protocol.Resp_ok { id; exit_code = 0; output = "shutting down\n" })
    | Ok (id, req) -> (
        let pending = t.running + Admission.Backlog.length t.backlog in
        match
          Admission.decide ~parent:c.parent t.ctx.Dispatch.admission ~pending
            ~client_pending:c.inflight
        with
        | Admission.Admit budget -> submit_admitted t c seq id req budget
        | Admission.Shed { reason = `Queue; retry_after_s } -> (
            (* fair-share rescue: when the global queue is full but
               this client's backlog is strictly shallower than the
               deepest one, evict that client's newest queued flight
               and admit the newcomer — one flooder cannot lock
               everyone else out *)
            let own =
              Admission.Backlog.depth_of t.backlog ~client:c.conn_id
            in
            match
              Admission.Backlog.evict_newest_of_deepest t.backlog
                ~spare:c.conn_id ~deeper_than:own
            with
            | Some (_, victim) ->
                shed_flight t victim ~retry_after_s;
                let timeout_s =
                  let s = t.ctx.Dispatch.admission.Admission.request_timeout_s in
                  if s > 0. then Some s else None
                in
                let budget =
                  Budget.child ?timeout_s
                    ~max_memory_mb:t.ctx.Dispatch.admission.Admission.max_heap_mb
                    c.parent
                in
                submit_admitted t c seq id req budget
            | None -> finish t c seq (overloaded id `Queue retry_after_s))
        | Admission.Shed { reason; retry_after_s } ->
            finish t c seq (overloaded id reason retry_after_s))
  end

(* Queue a farewell response (timeout, oversized line) behind whatever
   the connection is still owed, and close it once everything has been
   flushed in order — a reaped connection still gets its in-flight
   answers. *)
let finish_conn t c ~farewell =
  if c.alive && not c.closing then begin
    let seq = c.next_seq in
    c.next_seq <- seq + 1;
    c.closing <- true;
    finish t c seq farewell
  end
