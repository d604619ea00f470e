module Spapt = Altune_spapt.Spapt
module Kernels = Altune_spapt.Kernels
module Scale = Altune_experiments.Scale
module Tune_run = Altune_experiments.Tune_run
module Fault = Altune_exec.Fault
module Pool = Altune_exec.Pool
module Problem = Altune_core.Problem
module Json = Altune_obs.Json
module Metrics = Altune_obs.Metrics
module Trace = Altune_obs.Trace
module Quantile = Altune_obs.Quantile
module Flight = Altune_obs.Flight
module Snapshot = Altune_obs.Snapshot
module Manifest = Altune_obs.Manifest

type config = {
  jobs : int;
  max_live : int;
  max_queue : int;
  budget_cap : float option;
  checkpoint_dir : string option;
  snapshot_path : string option;
  snapshot_every : float;
  flight : Flight.t option;
  ledger_path : string option;
}

let default_config =
  {
    jobs = 1;
    max_live = 8;
    max_queue = 64;
    budget_cap = None;
    checkpoint_dir = None;
    snapshot_path = None;
    snapshot_every = 10.0;
    flight = None;
    ledger_path = None;
  }

(* Live telemetry: latency sketches and load gauges registered in the
   process-wide Metrics registry (so one scrape sees them next to the
   pool's and memo's instruments), plus the snapshot pump's state.
   None of it ever writes to the protocol stream — replies stay
   byte-identical at any job count whether telemetry is on or off. *)
type telemetry = {
  wire : Metrics.sketch;  (* per-request handle_line latency, seconds *)
  step : Metrics.sketch;  (* per-Session.step learner latency *)
  queue_wait : Metrics.sketch;  (* open-queued -> promoted *)
  memo_wait : Metrics.sketch;  (* per-evaluation latency, store included *)
  live_gauge : Metrics.gauge;
  queue_gauge : Metrics.gauge;
  requests : Metrics.counter;
  errors : Metrics.counter;
  started_ns : int64;
  queued_at : (string, int64) Hashtbl.t;  (* session -> ns when queued *)
  writer : (Snapshot.writer * Manifest.t) option;
      (* The snapshot series and the manifest stamped on its records,
         captured only when there is a series to stamp: capturing runs
         [git rev-parse]. *)
  mutable snap_seq : int;
  mutable last_gc : Gc.stat;
}

type t = {
  config : config;
  pool : Pool.t;
  benches : (string, Spapt.t) Hashtbl.t;
      (* One instance per kernel, shared by every session tuning it: its
         evaluation store is the cross-session cache. *)
  lookups : Lookups.t;  (* cross-session accounting of the stores *)
  sessions : (string, Session.t) Hashtbl.t;
  mutable order : string list;  (* admission order, newest first *)
  mutable queue : string list;  (* FIFO of queued names, head first *)
  mutable opened : int;
  mutable stopped : bool;
  tele : telemetry;
}

let create config =
  if config.jobs < 1 then invalid_arg "Server.create: jobs must be >= 1";
  if config.max_live < 1 then
    invalid_arg "Server.create: max_live must be >= 1";
  {
    config;
    pool = Pool.create ~jobs:config.jobs ();
    benches = Hashtbl.create 16;
    lookups = Lookups.create ();
    sessions = Hashtbl.create 64;
    order = [];
    queue = [];
    opened = 0;
    stopped = false;
    tele =
      {
        wire = Metrics.sketch "serve.wire_seconds";
        step = Metrics.sketch "serve.step_seconds";
        queue_wait = Metrics.sketch "serve.queue_wait_seconds";
        memo_wait = Metrics.sketch "serve.memo_wait_seconds";
        live_gauge = Metrics.gauge "serve.sessions.live";
        queue_gauge = Metrics.gauge "serve.queue.depth";
        requests = Metrics.counter "serve.requests";
        errors = Metrics.counter "serve.errors";
        started_ns = Trace.now_ns ();
        queued_at = Hashtbl.create 64;
        writer =
          Option.map
            (fun path ->
              (Snapshot.create path, Manifest.capture ~jobs:config.jobs ()))
            config.snapshot_path;
        snap_seq = 0;
        last_gc = Gc.quick_stat ();
      };
  }

let stopped t = t.stopped

(* --- Shared-memo accounting ------------------------------------------- *)

let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

(* The [note] callback of a session: count the lookup, then time the
   evaluation it wraps. *)
let note_for t ~session_id ~bench c eval =
  Lookups.note t.lookups ~session:session_id (bench, Problem.key c);
  let t0 = Trace.now_ns () in
  let v = eval () in
  Metrics.record t.tele.memo_wait (seconds_between t0 (Trace.now_ns ()));
  v

let instance t bench =
  match Hashtbl.find_opt t.benches bench with
  | Some b -> b
  | None ->
      let b = Spapt.create bench in
      Hashtbl.replace t.benches bench b;
      b

let memo_stats t = Lookups.stats t.lookups

(* --- Session store ----------------------------------------------------- *)

let find t name =
  match Hashtbl.find_opt t.sessions name with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "no session %S" name)

let in_admission_order t = List.rev t.order

let live_names t =
  List.filter
    (fun n -> Session.phase (Hashtbl.find t.sessions n) = Session.Live)
    (in_admission_order t)

let count_phase t p =
  List.length
    (List.filter
       (fun n -> Session.phase (Hashtbl.find t.sessions n) = p)
       (in_admission_order t))

let queue_position t name =
  let rec index i = function
    | [] -> None
    | n :: _ when String.equal n name -> Some i
    | _ :: rest -> index (i + 1) rest
  in
  index 0 t.queue

let view t s =
  Session.view s ~position:(queue_position t (Session.config s).Session.name)

(* Promote queued sessions into freed live slots, FIFO.  Called at the
   end of every request that can free a slot, so the admission sequence
   is a deterministic function of the request sequence. *)
let promote t =
  let rec go admitted =
    if count_phase t Session.Live >= t.config.max_live then List.rev admitted
    else
      match t.queue with
      | [] -> List.rev admitted
      | name :: rest ->
          t.queue <- rest;
          (match Hashtbl.find_opt t.tele.queued_at name with
          | Some t0 ->
              Metrics.record t.tele.queue_wait
                (seconds_between t0 (Trace.now_ns ()));
              Hashtbl.remove t.tele.queued_at name
          | None -> ());
          Session.admit (Hashtbl.find t.sessions name);
          go (name :: admitted)
  in
  go []

let stats t =
  {
    Protocol.s_opened = t.opened;
    s_live = count_phase t Session.Live;
    s_queued = List.length t.queue;
    s_done = count_phase t Session.Done;
    s_closed = count_phase t Session.Closed;
    s_max_live = t.config.max_live;
    s_max_queue = t.config.max_queue;
    s_memo = memo_stats t;
  }

let update_gauges t =
  Metrics.set_gauge t.tele.live_gauge
    (float_of_int (count_phase t Session.Live));
  Metrics.set_gauge t.tele.queue_gauge (float_of_int (List.length t.queue))

(* --- Open -------------------------------------------------------------- *)

let session_config (p : Protocol.open_params) :
    (Session.config, string) result =
  if String.length p.o_session = 0 then Error "empty session name"
  else if not (List.mem p.o_bench Kernels.names) then
    Error
      (Printf.sprintf "unknown benchmark %S; known: %s" p.o_bench
         (String.concat ", " Kernels.names))
  else
    match Scale.of_label p.o_scale with
    | None -> Error (Printf.sprintf "unknown scale %S" p.o_scale)
    | Some scale -> (
        match
          match p.o_fault with
          | None -> Ok None
          | Some s -> (
              match Fault.of_string s with
              | Ok sp -> Ok (Some sp)
              | Error e -> Error ("bad fault spec: " ^ e))
        with
        | Error e -> Error e
        | Ok fault ->
            if
              (match p.o_budget with Some b -> b <= 0.0 | None -> false)
              || (match p.o_n_max with Some n -> n < 1 | None -> false)
            then Error "budget and n_max must be positive"
            else
              Ok
                {
                  Session.name = p.o_session;
                  run =
                    {
                      Tune_run.bench = p.o_bench;
                      scale;
                      seed = p.o_seed;
                      fault;
                      n_max = p.o_n_max;
                      budget = p.o_budget;
                    };
                  checkpoint_path = p.o_checkpoint;
                })

let handle_open t (p : Protocol.open_params) =
  if Hashtbl.mem t.sessions p.o_session then
    Error (Printf.sprintf "session %S already exists" p.o_session)
  else
    match session_config p with
    | Error e -> Error e
    | Ok cfg -> (
        match (t.config.budget_cap, cfg.Session.run.budget) with
        | Some cap, Some b when b > cap ->
            Error
              (Printf.sprintf
                 "budget %.0fs exceeds the server's per-session cap of %.0fs"
                 b cap)
        | Some cap, None ->
            (* A capped server only admits sessions that declare a
               budget: unbounded work cannot be admission-controlled. *)
            Error
              (Printf.sprintf
                 "this server requires a per-session budget (cap %.0fs)" cap)
        | _ ->
            let live = count_phase t Session.Live in
            let queued = List.length t.queue in
            if live >= t.config.max_live && queued >= t.config.max_queue then
              Error
                (Printf.sprintf
                   "server at capacity: %d live, %d queued" live queued)
            else begin
              let id = t.opened in
              t.opened <- t.opened + 1;
              let bench = cfg.Session.run.bench in
              let s =
                Session.create ~bench:(instance t bench) ~pool:t.pool
                  ~note:(note_for t ~session_id:id ~bench)
                  cfg
              in
              Hashtbl.replace t.sessions cfg.Session.name s;
              t.order <- cfg.Session.name :: t.order;
              if live < t.config.max_live then Session.admit s
              else begin
                t.queue <- t.queue @ [ cfg.Session.name ];
                Hashtbl.replace t.tele.queued_at cfg.Session.name
                  (Trace.now_ns ())
              end;
              Ok (Protocol.R_session (view t s))
            end)

(* --- Checkpointing ----------------------------------------------------- *)

let checkpoint_path_for t (s : Session.t) ~explicit =
  match explicit with
  | Some p -> Some p
  | None -> (
      match (Session.config s).Session.checkpoint_path with
      | Some p -> Some p
      | None ->
          Option.map
            (fun dir ->
              Filename.concat dir ((Session.config s).Session.name ^ ".ck.json"))
            t.config.checkpoint_dir)

let handle_checkpoint t s ~path =
  match checkpoint_path_for t s ~explicit:path with
  | None ->
      Error
        (Printf.sprintf
           "no checkpoint path for session %S (pass one, open with \
            \"checkpoint\", or start the server with a checkpoint \
            directory)"
           (Session.config s).Session.name)
  | Some path -> (
      match Session.save_checkpoint s ~path with
      | Error e -> Error e
      | Ok iteration ->
          Ok
            (Protocol.R_checkpoint
               {
                 session = (Session.config s).Session.name;
                 path;
                 iteration;
               }))

(* --- Telemetry: snapshots, full scrape, failure ledger ----------------- *)

let sorted_obj fields =
  Json.Obj (List.sort (fun (a, _) (b, _) -> String.compare a b) fields)

let gc_json (g : Gc.stat) =
  sorted_obj
    [
      ("compactions", Json.Int g.compactions);
      ("heap_words", Json.Int g.heap_words);
      ("major_collections", Json.Int g.major_collections);
      ("major_words", Json.Float g.major_words);
      ("minor_collections", Json.Int g.minor_collections);
      ("minor_words", Json.Float g.minor_words);
      ("promoted_words", Json.Float g.promoted_words);
    ]

let memo_json (m : Protocol.memo_stats) =
  let hit_rate =
    if m.m_lookups = 0 then 0.0
    else float_of_int m.m_hits /. float_of_int m.m_lookups
  in
  sorted_obj
    [
      ("cross_hits", Json.Int m.m_cross_hits);
      ("entries", Json.Int m.m_entries);
      ("hit_rate", Json.Float hit_rate);
      ("hits", Json.Int m.m_hits);
      ("lookups", Json.Int m.m_lookups);
      ("shared_keys", Json.Int m.m_shared_keys);
    ]

let sketch_summaries t =
  sorted_obj
    [
      ("memo_wait", Quantile.summary_json (Metrics.sketch_data t.tele.memo_wait));
      ("queue_wait", Quantile.summary_json (Metrics.sketch_data t.tele.queue_wait));
      ("step", Quantile.summary_json (Metrics.sketch_data t.tele.step));
      ("wire", Quantile.summary_json (Metrics.sketch_data t.tele.wire));
    ]

(* One record of the snapshot time series.  Every key is sorted at every
   level, so two records differing only in load are textually comparable
   — the snapshot determinism contract (DESIGN.md §10): the *shape* is a
   pure function of the schema version, only the measured values vary. *)
let snapshot_record t manifest =
  let s = stats t in
  let now = Gc.quick_stat () in
  let prev = t.tele.last_gc in
  t.tele.last_gc <- now;
  let seq = t.tele.snap_seq in
  t.tele.snap_seq <- seq + 1;
  let gc_delta =
    sorted_obj
      [
        ("compactions", Json.Int (now.compactions - prev.compactions));
        ("heap_words", Json.Int now.heap_words);
        ( "major_collections",
          Json.Int (now.major_collections - prev.major_collections) );
        ("major_words", Json.Float (now.major_words -. prev.major_words));
        ( "minor_collections",
          Json.Int (now.minor_collections - prev.minor_collections) );
        ("minor_words", Json.Float (now.minor_words -. prev.minor_words));
        ("promoted_words", Json.Float (now.promoted_words -. prev.promoted_words));
      ]
  in
  sorted_obj
    ([
       ("closed", Json.Int s.s_closed);
       ("done", Json.Int s.s_done);
       ("ev", Json.String "snapshot");
       ("gc", gc_delta);
       ("live", Json.Int s.s_live);
       ("max_live", Json.Int s.s_max_live);
       ("max_queue", Json.Int s.s_max_queue);
       ("memo", memo_json s.s_memo);
       ("opened", Json.Int s.s_opened);
       ("pool_jobs", Json.Int t.config.jobs);
       ("queued", Json.Int s.s_queued);
       ("requests", Json.Int (Metrics.counter_value t.tele.requests));
       ("errors", Json.Int (Metrics.counter_value t.tele.errors));
       ("seq", Json.Int seq);
       ("sketches", sketch_summaries t);
       ("ts", Json.Float (Unix.gettimeofday ()));
       ( "uptime_s",
         Json.Float (seconds_between t.tele.started_ns (Trace.now_ns ())) );
     ]
    @ Manifest.fields manifest)

let snapshot t =
  match t.tele.writer with
  | Some (w, manifest) when not t.stopped ->
      Snapshot.write w (snapshot_record t manifest)
  | Some _ | None -> ()

let snapshot_every t = t.config.snapshot_every
let snapshots_on t = Option.is_some t.tele.writer

let stats_full_json t =
  sorted_obj
    [
      ("gc", gc_json (Gc.quick_stat ()));
      ("metrics", Metrics.snapshot ());
      ( "server",
        let s = stats t in
        sorted_obj
          [
            ("closed", Json.Int s.s_closed);
            ("done", Json.Int s.s_done);
            ("live", Json.Int s.s_live);
            ("max_live", Json.Int s.s_max_live);
            ("max_queue", Json.Int s.s_max_queue);
            ("memo", memo_json s.s_memo);
            ("opened", Json.Int s.s_opened);
            ("pool_jobs", Json.Int t.config.jobs);
            ("queued", Json.Int s.s_queued);
          ] );
      ( "uptime_s",
        Json.Float (seconds_between t.tele.started_ns (Trace.now_ns ())) );
    ]

(* Append one failure record — the error, the request line that caused
   it, and the flight recorder's retained spans — to the ledger file.
   Best-effort: diagnostics must never take the server down. *)
let ledger_append t ~line msg =
  match t.config.ledger_path with
  | None -> ()
  | Some path -> (
      try
        let oc =
          open_out_gen [ Open_append; Open_creat ] 0o644 path
        in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            let flight_lines =
              match t.config.flight with
              | None -> []
              | Some f -> Flight.dump f
            in
            let record =
              sorted_obj
                [
                  ("error", Json.String msg);
                  ("ev", Json.String "ledger");
                  ( "flight",
                    Json.List
                      (List.map (fun l -> Json.String l) flight_lines) );
                  ("request", Json.String line);
                  ("ts", Json.Float (Unix.gettimeofday ()));
                ]
            in
            output_string oc (Json.to_string record);
            output_char oc '\n')
      with Sys_error _ -> ())

let flight_dump_to t path =
  match t.config.flight with
  | None -> ()
  | Some f -> (
      try
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            List.iter
              (fun l ->
                output_string oc l;
                output_char oc '\n')
              (Flight.dump f))
      with Sys_error _ -> ())

let graceful_stop t =
  if t.stopped then []
  else begin
    (* Final snapshot before the writer closes, so even a short scripted
       run leaves at least one record in the series. *)
    (try snapshot t with Sys_error _ -> ());
    Option.iter (fun (w, _) -> Snapshot.close w) t.tele.writer;
    t.stopped <- true;
    let checkpointed =
      List.filter_map
        (fun name ->
          let s = Hashtbl.find t.sessions name in
          if Session.phase s <> Session.Live then None
          else
            match checkpoint_path_for t s ~explicit:None with
            | None -> None
            | Some path -> (
                match Session.save_checkpoint s ~path with
                | Ok _ -> Some (name, path)
                | Error _ -> None))
        (in_admission_order t)
    in
    Pool.shutdown t.pool;
    checkpointed
  end

(* --- Dispatch ----------------------------------------------------------- *)

let timed_step t s ~iterations =
  let t0 = Trace.now_ns () in
  let r = Session.step s ~iterations in
  Metrics.record t.tele.step (seconds_between t0 (Trace.now_ns ()));
  r

let handle t (req : Protocol.request) =
  if
    t.stopped
    && not
         (match req with
         | Protocol.Stats | Protocol.Stats_full | Protocol.Prom -> true
         | _ -> false)
  then Error "server is shut down"
  else
    match req with
    | Protocol.Open p -> handle_open t p
    | Protocol.Step { session; iterations } -> (
        match find t session with
        | Error e -> Error e
        | Ok s -> (
            match timed_step t s ~iterations with
            | Error e -> Error e
            | Ok () ->
                ignore (promote t);
                Ok (Protocol.R_session (view t s))))
    | Protocol.Tick { iterations } ->
        if iterations < 1 then Error "iterations must be at least 1"
        else begin
          let names = live_names t in
          let sessions = List.map (Hashtbl.find t.sessions) names in
          let results =
            Pool.map
              ~label:(fun i -> "serve.step " ^ List.nth names i)
              t.pool
              (fun s -> timed_step t s ~iterations)
              sessions
          in
          (* All sessions were live and iterations >= 1, so individual
             steps cannot fail; keep the check as a tripwire. *)
          List.iter
            (function Ok () -> () | Error e -> failwith e)
            results;
          ignore (promote t);
          Ok (Protocol.R_tick (List.map (view t) sessions))
        end
    | Protocol.Status { session } -> (
        match find t session with
        | Error e -> Error e
        | Ok s -> Ok (Protocol.R_session (view t s)))
    | Protocol.Checkpoint { session; path } -> (
        match find t session with
        | Error e -> Error e
        | Ok s -> handle_checkpoint t s ~path)
    | Protocol.Close { session } -> (
        match find t session with
        | Error e -> Error e
        | Ok s ->
            if Session.phase s = Session.Closed then
              Error (Printf.sprintf "session %S already closed" session)
            else begin
              t.queue <-
                List.filter (fun n -> not (String.equal n session)) t.queue;
              Session.close s;
              let admitted = promote t in
              Ok (Protocol.R_close { session; admitted })
            end)
    | Protocol.Stats -> Ok (Protocol.R_stats (stats t))
    | Protocol.Stats_full -> Ok (Protocol.R_stats_full (stats_full_json t))
    | Protocol.Prom -> Ok (Protocol.R_prom (Metrics.render_prom ()))
    | Protocol.Shutdown ->
        let checkpointed = graceful_stop t in
        Ok (Protocol.R_shutdown { checkpointed })

let handle t req =
  let result = handle t req in
  update_gauges t;
  result

let handle_line t line =
  let t0 = Trace.now_ns () in
  let response =
    match Protocol.request_of_line line with
    | Error (id, msg) ->
        Metrics.incr t.tele.errors;
        ledger_append t ~line msg;
        { Protocol.r_id = id; r_result = Error msg }
    | Ok (id, req) ->
        let result =
          try handle t req with
          | Failure e -> Error e
          | Invalid_argument e -> Error e
        in
        (match result with
        | Error msg ->
            Metrics.incr t.tele.errors;
            ledger_append t ~line msg
        | Ok _ -> ());
        { Protocol.r_id = id; r_result = result }
  in
  let rendered = Protocol.response_to_line response in
  Metrics.incr t.tele.requests;
  Metrics.record t.tele.wire (seconds_between t0 (Trace.now_ns ()));
  rendered
