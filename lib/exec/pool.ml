module Trace = Altune_obs.Trace
module Metrics = Altune_obs.Metrics

type event =
  | Task_started of { index : int; label : string }
  | Task_finished of { index : int; label : string; wall_seconds : float }

(* A batch is one map call; tasks carry their batch so that a helper
   draining the queue can complete tasks of any in-flight batch.
   [enqueued_ns]/[submitter] feed the queue-wait sketch and the
   helping-scheduler steal counter, which [run] records.  [b_loc] names
   the [remaining] counter to the race checker (each batch is its own
   cell). *)
type batch = { mutable remaining : int; b_loc : Sync.loc }

type task = {
  batch : batch;
  run : queued_s:float -> stolen:bool -> unit;
  enqueued_ns : int64;
  submitter : int;  (* domain id that enqueued the task *)
}

(* Process-wide instruments (shared across pools): where task time goes.
   Eager, not [lazy]: forcing one lazy value from two domains at once
   raises [CamlinternalLazy.Undefined]. *)
let m_tasks = Metrics.counter "pool.tasks"
let m_steals = Metrics.counter "pool.steals"
let m_wait = Metrics.sketch "pool.queue_wait_seconds"
let m_run = Metrics.sketch "pool.task_seconds"

(* All synchronization and shared-access instrumentation goes through
   [Sync]: real primitives in production (byte-identical behaviour), the
   model-checking scheduler under [Altune_conc].  [q_loc]/[stop_loc]
   name the queue and the stop flag to the race checker; both are
   protected by [lock], which the checker verifies rather than trusts. *)
type t = {
  n_jobs : int;
  lock : Sync.mutex;
  work : Sync.cond;
      (* Signalled when tasks are pushed, a batch drains, or on stop. *)
  queue : task Queue.t;
  q_loc : Sync.loc;
  mutable stop : bool;
  stop_loc : Sync.loc;
  mutable domains : Sync.handle array;
  on_event : (event -> unit) option;
  event_lock : Sync.mutex;
}

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)
let jobs t = t.n_jobs

(* Run one queued task.  Called with [t.lock] held; returns with it held.
   [task.run] never raises (map wraps it, instruments included). *)
let step t task =
  Sync.unlock t.lock;
  task.run
    ~queued_s:
      (Int64.to_float (Int64.sub (Trace.now_ns ()) task.enqueued_ns) /. 1e9)
    ~stolen:(Sync.self_id () <> task.submitter);
  Sync.lock t.lock;
  Sync.write task.batch.b_loc ~site:"pool.step: remaining decrement";
  task.batch.remaining <- task.batch.remaining - 1;
  if task.batch.remaining = 0 then Sync.broadcast t.work

let worker t =
  Sync.lock t.lock;
  let rec loop () =
    Sync.read t.stop_loc ~site:"pool.worker: stop check";
    if t.stop then Sync.unlock t.lock
    else begin
      Sync.write t.q_loc ~site:"pool.worker: queue take";
      match Queue.take_opt t.queue with
      | Some task ->
          step t task;
          loop ()
      | None ->
          Sync.wait t.work t.lock;
          loop ()
    end
  in
  loop ()

let create ?on_event ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be at least 1";
  let t =
    {
      n_jobs = jobs;
      lock = Sync.mutex ();
      work = Sync.cond ();
      queue = Queue.create ();
      q_loc = Sync.loc "pool.queue";
      stop = false;
      stop_loc = Sync.loc "pool.stop";
      domains = [||];
      on_event;
      event_lock = Sync.mutex ();
    }
  in
  t.domains <- Array.init (jobs - 1) (fun _ -> Sync.spawn (fun () -> worker t));
  t

let shutdown t =
  Sync.lock t.lock;
  Sync.write t.stop_loc ~site:"pool.shutdown: stop set";
  t.stop <- true;
  Sync.broadcast t.work;
  Sync.unlock t.lock;
  let domains = t.domains in
  t.domains <- [||];
  Array.iter Sync.join domains

let with_pool ?on_event ~jobs f =
  let t = create ?on_event ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Submit a batch and help execute until it drains.  The submitter may be
   the main domain or a worker running a task that fanned out again; either
   way it only blocks when its batch has tasks running on other domains. *)
let run_batch t thunks =
  let n = Array.length thunks in
  if n > 0 then begin
    let batch = { remaining = n; b_loc = Sync.loc "pool.batch.remaining" } in
    Sync.write batch.b_loc ~site:"pool.run_batch: batch created";
    let enqueued_ns = Trace.now_ns () in
    let submitter = Sync.self_id () in
    Sync.lock t.lock;
    Sync.write t.q_loc ~site:"pool.run_batch: enqueue";
    Array.iter
      (fun run -> Queue.add { batch; run; enqueued_ns; submitter } t.queue)
      thunks;
    Sync.broadcast t.work;
    let rec help () =
      Sync.read batch.b_loc ~site:"pool.run_batch: drain check";
      if batch.remaining > 0 then begin
        Sync.write t.q_loc ~site:"pool.run_batch: help take";
        (match Queue.take_opt t.queue with
        | Some task -> step t task
        | None -> Sync.wait t.work t.lock);
        help ()
      end
    in
    help ();
    Sync.unlock t.lock
  end

let emit t ev =
  match t.on_event with
  | None -> ()
  | Some f ->
      Sync.lock t.event_lock;
      Fun.protect ~finally:(fun () -> Sync.unlock t.event_lock) (fun () -> f ev)

let mapi ?label t f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let results = Array.make n None in
  let errors = Array.make n None in
  (* One race-checker cell per result slot: slot [i] is written by
     whichever domain runs task [i] and read back by the submitter after
     the drain — distinct slots must not be conflated into one cell or
     unrelated tasks would look racy. *)
  let slot_locs =
    if Sync.virtual_mode () then
      Array.init n (fun i -> Sync.loc (Printf.sprintf "pool.mapi.slot[%d]" i))
    else Array.make n (-1)
  in
  let label i =
    match label with Some l -> l i | None -> Printf.sprintf "task %d" i
  in
  (* Tasks may execute on any domain; propagating the submitter's trace
     context keeps the span tree identical at every job count. *)
  let ctx = Trace.current () in
  let thunks =
    Array.init n (fun i ~queued_s ~stolen ->
        match
          Metrics.record m_wait queued_s;
          if stolen then Metrics.incr m_steals;
          let lbl = label i in
          let t0 = Unix.gettimeofday () in
          Metrics.incr m_tasks;
          emit t (Task_started { index = i; label = lbl });
          let v =
            Trace.with_ctx ctx (fun () ->
                Trace.with_span ~name:"pool.task"
                  ~attrs:[ ("label", Trace.String lbl); ("index", Trace.Int i) ]
                  (fun () -> f i items.(i)))
          in
          let wall_seconds = Unix.gettimeofday () -. t0 in
          Metrics.record m_run wall_seconds;
          emit t (Task_finished { index = i; label = lbl; wall_seconds });
          v
        with
        | v ->
            Sync.write slot_locs.(i) ~site:"pool.mapi: result store";
            results.(i) <- Some v
        | exception e ->
            (* Capture the backtrace before anything else can run: a later
               re-raise (e.g. of a nested fan-out's failure, surfaced here
               on whichever domain helped drain the inner batch) must carry
               the original raise site, not the helper's frames. *)
            let bt = Printexc.get_raw_backtrace () in
            Sync.write slot_locs.(i) ~site:"pool.mapi: error store";
            errors.(i) <- Some (e, bt))
  in
  run_batch t thunks;
  (* The batch has fully drained: re-raise the first failure by task
     index, so the surfaced error is schedule-independent too. *)
  Array.iteri
    (fun i err ->
      Sync.read slot_locs.(i) ~site:"pool.mapi: error read-back";
      match err with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    errors;
  List.init n (fun i ->
      Sync.read slot_locs.(i) ~site:"pool.mapi: result read-back";
      match results.(i) with
      | Some v -> v
      | None ->
          (* Unreachable if the batch drained correctly; a descriptive
             failure beats [assert false] if that invariant ever breaks. *)
          raise
            (Failure
               (Printf.sprintf
                  "Pool.mapi: task %d (%s) finished with neither result nor \
                   error — batch accounting bug"
                  i (label i))))

let map ?label t f xs = mapi ?label t (fun _ x -> f x) xs

let map_reduce ?label t ~map:f ~reduce ~init xs =
  List.fold_left reduce init (map ?label t f xs)
