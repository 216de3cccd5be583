(* A queued unit of work.  [run] receives the pool slot of the worker
   that took it.  [fail] is the crash-containment channel: if anything
   escapes [run] — including an injected worker fault raised outside
   [run]'s own handlers — the worker routes the exception there instead
   of dying with it, so the submitter's accounting always settles and a
   waiting [parallel_map] can never wedge on a lost chunk. *)
type task = { run : int -> unit; fail : exn -> unit }

type worker = {
  alive : bool Atomic.t;
      (* true while the worker's domain runs: false until the first
         dispatch spawns it, and again once it has died of a crash *)
  mutable domain : unit Domain.t option;
      (* touched only from the owner domain (ensure_live / shutdown),
         never from the worker itself *)
}

type t = {
  size : int;
  workers : worker array;  (* [size - 1] of them; worker i is slot i + 1 *)
  queue : task Queue.t;  (* shared: any idle worker takes the next task *)
  mutex : Mutex.t;  (* guards [queue] and [stop] *)
  cond : Condition.t;
  mutable stop : bool;
}

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)
let jobs t = t.size

(* Execute one task under crash containment.  The [Worker_raise] and
   [Worker_stall] fault sites live here — around the task, outside its
   own handlers — precisely because this is the layer whose job is to
   survive them.  Returns [false] when the failure was domain-fatal
   (the injected worker crash): the loop then exits and the dead domain
   is respawned by [ensure_live] on the pool's next use. *)
let run_task w ~slot task =
  match
    if Fault.point Fault.Worker_raise then raise (Fault.Injected Fault.Worker_raise);
    if Fault.point Fault.Worker_stall then Unix.sleepf Fault.stall_seconds;
    task.run slot
  with
  | () -> true
  | exception e ->
      let fatal = match e with Fault.Injected Fault.Worker_raise -> true | _ -> false in
      (* On a domain-fatal failure, mark the worker dead *before*
         settling the submitter: [fail] wakes a waiting [parallel_map],
         and if that caller dispatched again while [alive] still read
         true, [ensure_live] would skip the respawn — and with every
         worker dead, the new task would sit in a queue nobody drains. *)
      if fatal then Atomic.set w.alive false;
      (try task.fail e with _ -> ());
      not fatal

(* Workers sleep on the shared condition variable and drain the queue
   before honouring [stop], so shutdown never drops submitted work. *)
let rec worker_loop pool i =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.queue && not pool.stop do
    Condition.wait pool.cond pool.mutex
  done;
  match Queue.take_opt pool.queue with
  | None -> Mutex.unlock pool.mutex
  | Some task ->
      Mutex.unlock pool.mutex;
      if run_task pool.workers.(i) ~slot:(i + 1) task then worker_loop pool i

let create ?jobs () =
  let size =
    match jobs with
    | None -> default_jobs ()
    | Some j -> if j < 1 then invalid_arg "Pool.create: jobs must be >= 1" else j
  in
  {
    size;
    workers = Array.init (size - 1) (fun _ -> { alive = Atomic.make false; domain = None });
    queue = Queue.create ();
    mutex = Mutex.create ();
    cond = Condition.create ();
    stop = false;
  }

(* Created eagerly, not behind a [lazy]: two domains forcing one
   unforced lazy at once raise [CamlinternalLazy.Undefined]. *)
let serial = create ~jobs:1 ()

(* Spawn every worker that is not running: on the pool's first dispatch
   (so standing a pool up costs no domain), or after a contained
   catastrophic task failure killed one — only the latter counts as a
   respawn.  Called from the owner domain before each dispatch, so a
   crashed worker costs one trip through here, not the pool. *)
let ensure_live pool =
  Array.iteri
    (fun i w ->
      if not (Atomic.get w.alive) then begin
        (* a crashed domain set alive := false on its way out; join releases it *)
        Option.iter
          (fun d ->
            Domain.join d;
            Stats.record_worker_respawn ())
          w.domain;
        Atomic.set w.alive true;
        w.domain <- Some (Domain.spawn (fun () -> worker_loop pool i))
      end)
    pool.workers

let submit pool task =
  Mutex.lock pool.mutex;
  Queue.add task pool.queue;
  Condition.signal pool.cond;
  Mutex.unlock pool.mutex

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.mutex;
  Array.iter
    (fun w ->
      Option.iter Domain.join w.domain;
      w.domain <- None)
    pool.workers

(* Fire-and-forget submission for the serve dispatcher: one task, no
   barrier, completion reported through whatever channel [run] itself
   arranges; the worker that takes it counts it under its own slot.
   Must be called from the pool's owner domain (it may spawn workers). *)
let post pool ~run ~fail =
  if pool.size = 1 then invalid_arg "Pool.post: a one-job pool has no workers";
  ensure_live pool;
  submit pool
    {
      run =
        (fun slot ->
          Stats.record_task ~slot;
          run ());
      fail;
    }

let with_pool ?jobs ?budget f =
  let pool = create ?jobs () in
  let go () = Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool) in
  match budget with None -> go () | Some b -> Budget.with_sigint b go

let parallel_map ?budget pool f xs =
  match xs with
  | [] -> []
  | [ x ] ->
      Stats.record_task ~slot:0;
      Budget.check_opt budget;
      [ f x ]
  | xs when pool.size = 1 ->
      Stats.record_task ~slot:0;
      List.map
        (fun x ->
          Budget.check_opt budget;
          f x)
        xs
  | xs ->
      ensure_live pool;
      let input = Array.of_list xs in
      let n = Array.length input in
      let out = Array.make n None in
      let parts = min pool.size n in
      let remaining = Atomic.make parts in
      let first_exn = Atomic.make None in
      let done_mutex = Mutex.create () in
      let done_cond = Condition.create () in
      (* Every chunk settles through here exactly once — from its own
         bookkeeping on success, or from the worker's containment
         [fail] channel when the chunk itself was lost.  Chunk [p]
         counts as slot [p] whichever worker took it, so the utilised
         slots of a map do not depend on scheduling. *)
      let settle p =
        Stats.record_task ~slot:p;
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          (* Last chunk: wake the caller, who may already be waiting. *)
          Mutex.lock done_mutex;
          Condition.broadcast done_cond;
          Mutex.unlock done_mutex
        end
      in
      (* Chunk [p] owns the index range [bound p, bound (p+1)). *)
      let bound p = p * n / parts in
      let run_chunk p =
        (try
           for i = bound p to bound (p + 1) - 1 do
             Budget.check_opt budget;
             out.(i) <- Some (f input.(i))
           done
         with e -> ignore (Atomic.compare_and_set first_exn None (Some e)));
        settle p
      in
      let fail_chunk e =
        ignore (Atomic.compare_and_set first_exn None (Some e))
      in
      for p = 1 to parts - 1 do
        submit pool
          {
            run = (fun _ -> run_chunk p);
            fail =
              (fun e ->
                fail_chunk e;
                settle p);
          }
      done;
      run_chunk 0;
      Mutex.lock done_mutex;
      while Atomic.get remaining > 0 do
        Condition.wait done_cond done_mutex
      done;
      Mutex.unlock done_mutex;
      (match Atomic.get first_exn with Some e -> raise e | None -> ());
      Array.to_list (Array.map (function Some y -> y | None -> assert false) out)

let parallel_iter ?budget pool f xs = ignore (parallel_map ?budget pool (fun x -> f x) xs)
