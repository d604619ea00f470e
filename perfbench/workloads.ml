(* The four workloads, as one round runs inside a child process.  A round
   builds its inputs from (seed, round index), sets up (untimed), runs
   the timed part, then checks its outputs (untimed).  Operations are
   reported as they finish, so a round that later dies or hangs still
   accounts for the work it completed. *)

module Rng = Altune_prng.Rng
module Json = Altune_obs.Json
module Trace = Altune_obs.Trace
module Spapt = Altune_spapt.Spapt
module Kernels = Altune_spapt.Kernels
module Verify = Altune_kernellang.Verify
module Scale = Altune_experiments.Scale
module Runs = Altune_experiments.Runs
module Drivers = Altune_experiments.Drivers
module Adapter = Altune_experiments.Adapter
module Learner = Altune_core.Learner
module Dataset = Altune_core.Dataset
module Search = Altune_core.Search
module Surrogate = Altune_core.Surrogate
module Pool = Altune_exec.Pool
module Server = Altune_serve.Server
module P = Altune_serve.Protocol
open Util

type name = Tune | Paper_model | Table1 | Serve

let all = [ Tune; Paper_model; Table1; Serve ]

let to_string = function
  | Tune -> "tune"
  | Paper_model -> "paper-model"
  | Table1 -> "table1"
  | Serve -> "serve"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(* Rounds a run makes are [seconds / nominal_round_s]: a fixed amount of
   work per run, sized to take about [--seconds] on a 2-core x86-64 VM.
   A round past [deadline_s] is killed and counted as failed. *)
let nominal_round_s = function
  | Tune -> 7.0
  | Paper_model -> 1.15
  | Table1 -> 0.2
  | Serve -> 8.0

let deadline_s w = Float.max 3.0 (5.0 *. nominal_round_s w)

(* Domains a workload's process runs: the server's and the table1 pool's
   2 (nproc on the reference VM); the sequential workloads 1. *)
let jobs = function Tune | Paper_model -> 1 | Table1 | Serve -> 2

(* --- Round record ------------------------------------------------------ *)

type round = {
  mutable setup : float list;  (* seconds per set-up *)
  mutable wall : float;  (* timed part *)
  mutable sessions : float list;  (* seconds per session *)
  mutable steps_ms : float list;  (* latency per learner step *)
  mutable learner_s : float;  (* time inside the learner *)
  mutable iterations : int;  (* learner iterations in that time *)
  mutable audits : int;  (* configurations re-verified *)
  mutable problems : string list;  (* output-check failures *)
  mutable layers : (string * float) list;  (* additive traced quantities *)
  mutable heap_words : int;  (* peak sampled major heap; 0 if not sampled *)
}

let new_round () =
  {
    setup = [];
    wall = 0.0;
    sessions = [];
    steps_ms = [];
    learner_s = 0.0;
    iterations = 0;
    audits = 0;
    problems = [];
    layers = [];
    heap_words = 0;
  }

let emit j =
  print_string (Json.to_string j);
  print_newline ()

let emit_op ~name ?(error = "") ?(digest = "") ok =
  emit
    (Json.Obj
       [
         ("kind", Json.String "op");
         ("name", Json.String name);
         ("ok", Json.Bool ok);
         ("error", Json.String error);
         ("digest", Json.String digest);
       ])

(* [gc0] is the GC's state when the round began: serve's episodes share
   a process, so its counters are read as deltas. *)
let round_json r ~(gc0 : Gc.stat) =
  let gc = Gc.quick_stat () in
  Json.Obj
    [
      ("kind", Json.String "round");
      ("setup", floats (List.rev r.setup));
      ("wall", Json.Float r.wall);
      ("sessions", floats (List.rev r.sessions));
      ("steps_ms", floats (List.rev r.steps_ms));
      ("learner_s", Json.Float r.learner_s);
      ("iterations", Json.Int r.iterations);
      ( "heap_mb",
        Json.Float
          (if r.heap_words > 0 then float_of_int r.heap_words *. 8.0 /. 1e6
           else heap_mb ()) );
      ("minor_mb", Json.Float ((gc.minor_words -. gc0.minor_words) *. 8.0 /. 1e6));
      ("major_collections", Json.Int (gc.major_collections - gc0.major_collections));
      ("audits", Json.Int r.audits);
      ( "problems",
        Json.List (List.map (fun s -> Json.String s) (List.rev r.problems)) );
      ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.layers));
    ]

let add_layers r kvs =
  r.layers <-
    List.fold_left
      (fun acc (k, v) ->
        match List.assoc_opt k acc with
        | Some x -> (k, x +. v) :: List.remove_assoc k acc
        | None -> (k, v) :: acc)
      r.layers kvs

(* Repeat a set-up [n] times (discarding all but the last result), so a
   run reports a median set-up time even when it makes few rounds. *)
let set_up r ~n ?(release = ignore) f =
  let rec go i =
    let v, dt = timed f in
    r.setup <- dt :: r.setup;
    if i < n then begin
      release v;
      go (i + 1)
    end
    else v
  in
  go 1

(* Re-verify a configuration with the interpreter-based soundness audit.
   Its cost grows with the number of statement copies the recipe makes
   (the product of the unroll and jam factors: one lu recipe with a
   product of 1,024 takes 10 s), so audits draw from the configurations
   whose product is at most [audit_copies], falling back to the one
   with the smallest product. *)
let audit_copies = 64

let copies b c =
  List.fold_left ( * ) 1
    (List.mapi
       (fun i k ->
         match k with Spapt.Tile _ -> 1 | Spapt.Jam _ | Spapt.Unroll _ -> c.(i) + 1)
       (Spapt.knobs b))

(* The configuration of [configs] to audit: one whose copy count is at
   most [audit_copies] (the [pick]-th of them), else the cheapest. *)
let audit_choice b ~pick configs =
  let configs = Array.to_list configs in
  match List.filter (fun c -> copies b c <= audit_copies) configs with
  | [] ->
      List.fold_left
        (fun a c -> if copies b c < copies b a then c else a)
        (List.hd configs) configs
  | l -> List.nth l (pick mod List.length l)

(* Audits run on a fresh instance of the benchmark, so a round need not
   keep its sessions' instances (and their caches) alive until then. *)
let audit r bench c =
  r.audits <- r.audits + 1;
  let v = Spapt.verify_config (Spapt.create bench) c in
  if not (Verify.ok v) then
    r.problems <- Verify.verdict_to_string v :: r.problems

let config_string c = String.concat "," (List.map string_of_int (Array.to_list c))

(* Time a round's measured part.  In a traced round the spans are kept
   in memory, attributed to layers, and written to [trace_path] when the
   round ends; registry counters are read as before/after deltas. *)
let trace_path = ref None

let measure r ~traced ~wrapped f =
  if not traced then timed f
  else begin
    let before = Layers.registry () in
    let (v, wall), lines =
      Trace.with_memory (fun () ->
          timed (fun () -> Trace.with_span ~name:"bench.round" f))
    in
    add_layers r (Layers.delta before (Layers.registry ()));
    add_layers r (Layers.attribute ~wrapped lines);
    add_layers r [ ("traced_wall_s", wall) ];
    Option.iter
      (fun path ->
        let oc = open_out path in
        List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
        close_out oc)
      !trace_path;
    (v, wall)
  end

(* --- Shared learner-session pieces (tune, paper-model) ---------------- *)

let space_of b =
  Search.space_of_cardinalities
    (Array.of_list (List.map Spapt.knob_cardinality (Spapt.knobs b)))

(* Search the trained model with each method from one rng, keeping the
   best prediction (the first on ties), as [altune tune] does. *)
let search b (o : Learner.outcome) ~seed methods =
  let rng = Rng.create ~seed:(seed + 1) in
  let results =
    List.map
      (fun m -> Search.minimize ~rng (space_of b) ~predict:o.predict m)
      methods
  in
  let best =
    List.fold_left
      (fun (acc : Search.result) (x : Search.result) ->
        if x.predicted < acc.predicted then x else acc)
      (List.hd results) (List.tl results)
  in
  (best, List.fold_left (fun n (x : Search.result) -> n + x.evaluations) 0 results)

(* The simulated results of one session, rendered exactly (hex floats)
   for its digest. *)
let session_text ~name b (o : Learner.outcome) (best : Search.result) queries =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%s: %d configs, %d runs, cost %s, rmse %s\n" name
    o.distinct_examples o.total_runs (hex o.total_cost) (hex o.final_rmse);
  List.iter
    (fun (p : Learner.eval_point) ->
      Printf.bprintf buf "%d %d %d %s %s\n" p.iteration p.examples
        p.observations (hex p.cost_seconds) (hex p.rmse))
    o.curve;
  Printf.bprintf buf "best [%s] predicted %s true %s queries %d\n"
    (config_string best.best) (hex best.predicted)
    (hex (Spapt.true_runtime b best.best))
    queries;
  Buffer.contents buf

let iterations (o : Learner.outcome) =
  match List.rev o.curve with p :: _ -> p.iteration | [] -> 0

(* One learner session on [b]: dataset (generated at the scale's size
   unless given), training, model search.  Traced rounds hand the learner a wrapped
   problem and model.  Returns the session's output checks, for the
   caller to run once the timed part is over. *)
let session r ~traced ~name ~seed ~settings ~methods ~dataset b =
  let seen = Layers.seen () in
  let generated =
    match dataset with `Generate (sc : Scale.t) -> sc.n_configs | `Given _ -> 0
  in
  let problem = Adapter.problem_of b in
  let problem = if traced then Layers.wrap_problem seen problem else problem in
  (* Learner steps are timed between consecutive profiling runs: after
     its seed phase the adaptive plan profiles once per iteration. *)
  let stamps = ref [] and in_learner = ref false in
  let problem =
    {
      problem with
      measure =
        (fun ~rng ~run_index c ->
          if !in_learner then stamps := now () :: !stamps;
          problem.measure ~rng ~run_index c);
    }
  in
  let settings =
    if traced then
      { settings with Learner.model = Layers.wrap_factory seen settings.Learner.model }
    else settings
  in
  let t0 = now () in
  match
    Trace.with_span ~name:"bench.session" (fun () ->
        let dataset =
          match dataset with
          | `Given d -> d
          | `Generate (sc : Scale.t) ->
              Trace.with_span ~name:"bench.dataset" (fun () ->
                  Dataset.generate problem
                    ~rng:(Rng.create ~seed:(Rng.derive ~seed [ S "dataset" ]))
                    ~n_configs:sc.n_configs ~test_fraction:sc.test_fraction
                    ~n_obs:sc.n_obs)
        in
        in_learner := true;
        let outcome, learner_s =
          timed (fun () ->
              Trace.with_span ~name:"bench.learner" (fun () ->
                  Learner.run problem dataset settings ~rng:(Rng.create ~seed)))
        in
        in_learner := false;
        let best, queries =
          Trace.with_span ~name:"bench.search" (fun () ->
              search b outcome ~seed methods)
        in
        (dataset, outcome, learner_s, session_text ~name b outcome best queries, queries))
  with
  | exception e ->
      emit_op ~name ~error:(Printexc.to_string e) false;
      ignore
  | dataset, outcome, learner_s, text, queries ->
      let wall = now () -. t0 in
      let iters = iterations outcome in
      r.sessions <- wall :: r.sessions;
      r.learner_s <- r.learner_s +. learner_s;
      r.iterations <- r.iterations + iters;
      let stamps = Array.of_list (List.rev !stamps) in
      for i = settings.n_init * settings.n_obs_init to Array.length stamps - 1 do
        r.steps_ms <- (1000.0 *. (stamps.(i) -. stamps.(i - 1))) :: r.steps_ms
      done;
      emit_op ~name ~digest:(digest text) true;
      (* The untimed checks, for the caller to run after the timed part:
         re-verify one test-panel configuration with the interpreter and,
         in a traced round, replay the session's evaluations. *)
      let bench = Spapt.name b in
      let c =
        audit_choice b ~pick:(seed land 0xffff) dataset.Dataset.test_configs
      in
      (* Untraced checks keep nothing of the session alive but [c]. *)
      if not traced then fun () -> audit r bench c
      else fun () ->
        audit r bench c;
        add_layers r
          [
            ("count.learner.iterations", float_of_int iters);
            ("count.learner.candidates", float_of_int seen.candidates);
            ("count.dynatree.predicts", float_of_int seen.predicts);
            ("count.search.queries", float_of_int queries);
            ("count.dataset.configs", float_of_int generated);
          ];
        let kvs, mismatches =
          Layers.replay b (Layers.seen_configs seen) ~measures:seen.measures
        in
        add_layers r kvs;
        r.problems <- List.rev_append mismatches r.problems

(* --- tune ---------------------------------------------------------------- *)

(* Sequential adaptive sessions at jobs 1, one per kernel, in a seeded
   order: the whole catalogue spans cheap evaluations (mvt) and costly
   ones (lu), so every round has the same mix and the seed only moves
   the learner's and the dataset's random draws.  Each session does what
   [altune tune --scale smoke] does: dataset, [Learner.run], model
   search. *)
let tune_scale = Scale.smoke

let tune_methods =
  [
    Search.Random_sampling 20_000;
    Search.Hill_climbing { restarts = 10; max_steps = 60 };
  ]

let tune_plan ~seed ~round =
  let names = Array.of_list Kernels.names in
  Rng.shuffle
    (Rng.create ~seed:(Rng.derive ~seed [ S "perfbench.tune"; I round ]))
    names;
  Array.to_list
    (Array.map
       (fun k -> (k, Rng.derive ~seed [ S "perfbench.tune"; I round; S k ]))
       names)

let tune r ~traced ~seed ~round =
  let plan =
    set_up r ~n:3 (fun () ->
        List.map (fun (k, s) -> (Spapt.create k, s)) (tune_plan ~seed ~round))
  in
  let checks, wall =
    measure r ~traced ~wrapped:true (fun () ->
        List.map
          (fun (b, s) ->
            session r ~traced
              ~name:(Printf.sprintf "tune/r%d/%s" round (Spapt.name b))
              ~seed:s ~settings:tune_scale.adaptive ~methods:tune_methods
              ~dataset:(`Generate tune_scale) b)
          plan)
  in
  r.wall <- wall;
  List.iter (fun check -> check ()) checks

(* --- paper-model ----------------------------------------------------------- *)

(* The paper's model sizes ([Learner.paper_settings]: 5,000 particles,
   500 candidates, 300 reference points) on mm at jobs 1, with the
   iteration cap cut to fit a round.  The training pool holds thousands
   of configurations, the test panel only a few dozen, so the dynamic
   tree dominates.  Each round draws its own dataset and learner
   streams from the seed. *)
let paper_kernel = "mm"

let paper_settings =
  { Learner.paper_settings with
    n_max = 12;
    eval_every = 4 }

let paper_methods =
  [
    Search.Random_sampling 500;
    Search.Hill_climbing { restarts = 2; max_steps = 20 };
  ]

let paper_model r ~traced ~seed ~round =
  let kernel = paper_kernel in
  let s = Rng.derive ~seed [ S "perfbench.paper-model"; I round ] in
  let b, dataset =
    set_up r ~n:1 (fun () ->
        let b = Spapt.create kernel in
        let dataset =
          Dataset.generate (Adapter.problem_of b)
            ~rng:(Rng.create ~seed:(Rng.derive ~seed:s [ S "dataset" ]))
            ~n_configs:3000 ~test_fraction:0.01 ~n_obs:35
        in
        (b, dataset))
  in
  let check, wall =
    measure r ~traced ~wrapped:true (fun () ->
        session r ~traced
          ~name:(Printf.sprintf "paper-model/r%d/%s" round kernel)
          ~seed:s ~settings:paper_settings ~methods:paper_methods
          ~dataset:(`Given dataset) b)
  in
  r.wall <- wall;
  check ()

(* --- table1 ------------------------------------------------------------------ *)

(* [Drivers.table1] at jobs 2 on a seeded pair of kernels at a scale small
   enough for many runs per measurement: three sampling plans x two
   repetitions per kernel, fanned out through Runs, Pool and Memo, each
   plan x repetition task on its own Spapt instance.  The fixed plan
   re-reads each cached evaluation 35 times. *)
let table1_scale =
  {
    Scale.label = "perfbench";
    n_configs = 24;
    test_fraction = 0.25;
    n_obs = 35;
    reps = 2;
    adaptive =
      {
        Learner.scaled_settings with
        n_init = 2;
        n_obs_init = 5;
        n_candidates = 5;
        n_max = 5;
        ref_size = 8;
        eval_every = 1;
        model = Surrogate.dynatree ~particles:8 ();
      };
    table2_configs = 8;
    fig1_max_grid = 2;
  }

(* The three kernels with the cheapest evaluations, so a run makes enough
   table1 runs for a steady failure count. *)
let table1_pool = [| "mvt"; "bicgkernel"; "gemver" |]

let table1_kernels ~seed ~round =
  let names = table1_pool in
  let rng = Rng.create ~seed:(Rng.derive ~seed [ S "perfbench.table1"; I round ]) in
  Array.to_list
    (Array.map
       (fun i -> names.(i))
       (Rng.sample_without_replacement rng 2 (Array.length names)))

let table1 r ~traced ~seed ~round =
  let kernels = table1_kernels ~seed ~round in
  let t1_seed = Rng.derive ~seed [ S "perfbench.table1.seed"; I round ] in
  let tasks = ref [] and lock = Mutex.create () in
  let on_event = function
    | Pool.Task_finished { label; wall_seconds; _ } when contains " rep " label ->
        (* Plan x repetition tasks are the learner sessions. *)
        Mutex.lock lock;
        tasks := wall_seconds :: !tasks;
        Mutex.unlock lock
    | Pool.Task_finished _ | Pool.Task_started _ -> ()
  in
  (* No warm-up: the pool's first tasks run exactly as in [altune table1
     --jobs 2] started fresh. *)
  set_up r ~n:1 (fun () ->
      Runs.set_jobs ~on_event (jobs Table1);
      ignore (Runs.pool ()));
  let name = Printf.sprintf "table1/r%d/%s" round (String.concat "," kernels) in
  match
    measure r ~traced ~wrapped:false (fun () ->
        Drivers.table1 ~benchmarks:kernels ~scale:table1_scale ~seed:t1_seed ())
  with
  | exception e -> emit_op ~name ~error:(Printexc.to_string e) false
  | text, wall ->
      r.wall <- wall;
      let n_max = table1_scale.adaptive.n_max in
      List.iter
        (fun s ->
          r.sessions <- s :: r.sessions;
          r.steps_ms <- (1000.0 *. s /. float_of_int n_max) :: r.steps_ms)
        !tasks;
      r.iterations <- List.length !tasks * n_max;
      r.learner_s <- wall;
      emit_op ~name ~digest:(digest text) true;
      (* Untimed check: one test-panel configuration of one of the
         kernels, from the (now cached) dataset the run evaluated. *)
      let k = List.nth kernels (round mod 2) in
      let b = Spapt.create k in
      let panel = (Runs.dataset_for b table1_scale ~seed:t1_seed).Dataset.test_configs in
      audit r k (audit_choice b ~pick:round panel)

(* --- serve ------------------------------------------------------------------- *)

(* A closed-loop client acting for many tenants through
   [Server.handle_line], in process: each request is sent when the
   previous reply arrives.  Tenants open smoke-scale sessions over every
   kernel x two seeds, each (kernel, seed) pair six times: its first
   opening grows the shared memo and the dataset cache, the five
   repeats read them.  Between opens the client ticks every live
   session, steps three, polls a status and the server stats, and
   closes finished sessions.

   The plan keeps the session times free of gaps near their median,
   where a median would jump from one side to the other between seeds.
   Fresh tenants take seconds and repeat tenants a tenth of that, so
   repeats outnumber fresh ones five to one and the median lies among
   them.  Each tenant draws its iteration cap from [serve_n_max]:
   tenants opened together with one cap would finish together, in
   clusters with gaps between them.  Likewise a single-iteration Step
   takes about a millisecond and a Tick several: three Steps per Tick
   put the median step latency among the Steps.

   The server's pool has 2 domains and the process-wide Runs pool 1, so
   the process runs 2 domains in all. *)
let serve_max_live = 8
let serve_window = serve_max_live + 4
let serve_opens_per_pair = 6
let serve_sessions = 2 * List.length Kernels.names * serve_opens_per_pair
let serve_n_max = (12, 28)  (* iteration caps, drawn uniformly; mean 20 *)
let serve_tick_iterations = 2
let serve_steps_per_turn = 3

let serve_plan ~seed ~round =
  let rng = Rng.create ~seed:(Rng.derive ~seed [ S "perfbench.serve"; I round ]) in
  let seeds =
    List.init 2 (fun i ->
        Rng.derive ~seed [ S "perfbench.serve.seed"; I round; I i ] land 0xffffff)
  in
  let pairs =
    Array.of_list
      (List.concat_map (fun k -> List.map (fun s -> (k, s)) seeds) Kernels.names)
  in
  Rng.shuffle rng pairs;
  (* Every pair is opened [serve_opens_per_pair] times, in the same
     seeded order each time: the fresh tenants come first, the repeats
     after them. *)
  let lo, hi = serve_n_max in
  List.concat (List.init serve_opens_per_pair (fun _ -> Array.to_list pairs))
  |> List.mapi (fun i (k, s) ->
         (Printf.sprintf "t%03d" i, k, s, lo + Rng.int rng (hi - lo + 1)))

type client = {
  server : Server.t;
  transcript : Buffer.t;
  mutable exchanges : (string * string) list;  (* request, reply; reversed *)
  mutable sent : int;
  mutable open_s : float list;
  mutable step_s : float list;
  mutable queue_max : int;
  last_iter : (string, int) Hashtbl.t;
}

let serve r ~traced ~seed ~round =
  let plan = serve_plan ~seed ~round in
  let server =
    set_up r ~n:3
      ~release:(fun s -> ignore (Server.graceful_stop s))
      (fun () ->
        Runs.set_jobs 1;
        Server.create
          {
            Server.default_config with
            jobs = jobs Serve;
            max_live = serve_max_live;
            max_queue = serve_sessions;
          })
  in
  let c =
    {
      server;
      transcript = Buffer.create 65536;
      exchanges = [];
      sent = 0;
      open_s = [];
      step_s = [];
      queue_max = 0;
      last_iter = Hashtbl.create 64;
    }
  in
  let opened_at = Hashtbl.create 64 and state = Hashtbl.create 64 in
  let order = ref [] and opened = ref 0 and closed = ref 0 in
  let pending = Queue.of_seq (List.to_seq plan) in
  (* One request, sent through the line codecs like a socket client.  An
     error reply is a failed operation; the loop goes on. *)
  let request kind req =
    let line = P.request_to_line req in
    let name = Printf.sprintf "serve/r%d/%04d/%s" round c.sent kind in
    c.sent <- c.sent + 1;
    let reply, dt =
      timed (fun () ->
          Trace.with_span ~name:("bench.serve." ^ kind) (fun () ->
              Server.handle_line c.server line))
    in
    Buffer.add_string c.transcript reply;
    Buffer.add_char c.transcript '\n';
    (* Episodes share a process, so the peak heap is sampled per episode
       (after a compaction) rather than read from [top_heap_words]. *)
    r.heap_words <- max r.heap_words (Gc.quick_stat ()).Gc.heap_words;
    c.exchanges <- (line, reply) :: c.exchanges;
    match P.response_of_line reply with
    | Ok { P.r_result = Ok rep; _ } ->
        emit_op ~name true;
        Some (rep, dt)
    | Ok { P.r_result = Error e; _ } ->
        emit_op ~name ~error:e false;
        None
    | Error e ->
        emit_op ~name ~error:("bad response line: " ^ e) false;
        None
  in
  let note (v : P.session_view) =
    let n = v.v_session in
    let before = Option.value ~default:0 (Hashtbl.find_opt c.last_iter n) in
    Hashtbl.replace c.last_iter n v.v_iteration;
    r.iterations <- r.iterations + (v.v_iteration - before);
    Option.iter (fun p -> c.queue_max <- max c.queue_max (p + 1)) v.v_position;
    if v.v_state = P.Done && Hashtbl.find_opt state n <> Some P.Done then
      r.sessions <- (now () -. Hashtbl.find opened_at n) :: r.sessions;
    Hashtbl.replace state n v.v_state
  in
  let stepped dt =
    r.learner_s <- r.learner_s +. dt;
    c.step_s <- dt :: c.step_s;
    r.steps_ms <- (1000.0 *. dt) :: r.steps_ms
  in
  let fill () =
    while (not (Queue.is_empty pending)) && !opened - !closed < serve_window do
      let name, bench, s, n_max = Queue.pop pending in
      Hashtbl.replace opened_at name (now ());
      order := !order @ [ name ];
      incr opened;
      match
        request "open"
          (P.Open
             {
               P.o_session = name;
               o_bench = bench;
               o_scale = "smoke";
               o_seed = s;
               o_fault = None;
               o_budget = None;
               o_n_max = Some n_max;
               o_checkpoint = None;
             })
      with
      | Some (P.R_session v, dt) ->
          c.open_s <- dt :: c.open_s;
          note v
      | _ -> ()
    done
  in
  let rng = Rng.create ~seed:(Rng.derive ~seed [ S "perfbench.serve.loop"; I round ]) in
  let live () = List.filter (fun n -> Hashtbl.find_opt state n = Some P.Live) !order in
  let loop () =
    fill ();
    let turn = ref 0 in
    while !closed < serve_sessions do
      incr turn;
      if !turn > 50 * serve_sessions then failwith "serve: closed loop stalled";
      (match request "tick" (P.Tick { iterations = serve_tick_iterations }) with
      | Some (P.R_tick vs, dt) ->
          stepped dt;
          List.iter note vs
      | _ -> ());
      for k = 1 to serve_steps_per_turn do
        match live () with
        | [] -> ()
        | l -> (
            let n = List.nth l (((serve_steps_per_turn * !turn) + k) mod List.length l) in
            match request "step" (P.Step { session = n; iterations = 1 }) with
            | Some (P.R_session v, dt) ->
                stepped dt;
                note v
            | _ -> ())
      done;
      (let names = Array.of_list !order in
       let n = names.(Rng.int rng (Array.length names)) in
       match request "status" (P.Status { session = n }) with
       | Some (P.R_session v, _) -> note v
       | _ -> ());
      if !turn mod 4 = 0 then (
        match request "stats" P.Stats with
        | Some (P.R_stats s, _) -> c.queue_max <- max c.queue_max s.P.s_queued
        | _ -> ());
      List.iter
        (fun n ->
          if Hashtbl.find_opt state n = Some P.Done then begin
            ignore (request "close" (P.Close { session = n }));
            Hashtbl.replace state n P.Closed;
            incr closed
          end)
        !order;
      fill ()
    done;
    let memo =
      match request "stats" P.Stats with
      | Some (P.R_stats s, _) -> Some s.P.s_memo
      | _ -> None
    in
    ignore (request "shutdown" P.Shutdown);
    memo
  in
  let memo, wall = measure r ~traced ~wrapped:false loop in
  r.wall <- wall;
  emit
    (Json.Obj
       [
         ("kind", Json.String "digest");
         ("name", Json.String (Printf.sprintf "serve/r%d" round));
         ("digest", Json.String (digest (Buffer.contents c.transcript)));
       ]);
  (* Untimed checks: tenants that repeat a (kernel, seed) pair must have
     been served from the shared memo, and one test-panel configuration
     per kernel is re-verified. *)
  (match memo with
  | Some m when m.P.m_cross_hits > 0 -> ()
  | _ -> r.problems <- "serve: no cross-session memo hits" :: r.problems);
  List.iteri
    (fun i (_, k, s, _) ->
      if i < 2 then begin
        let b = Spapt.create k in
        let panel = (Runs.dataset_for b Scale.smoke ~seed:s).Dataset.test_configs in
        audit r k (audit_choice b ~pick:round panel)
      end)
    plan;
  if traced then begin
    let exchanges = List.rev c.exchanges in
    let (), codec =
      timed (fun () ->
          List.iter
            (fun (req, rep) ->
              ignore (P.request_of_line req);
              match P.response_of_line rep with
              | Ok resp -> ignore (P.response_to_line resp)
              | Error _ -> ())
            exchanges)
    in
    let m f = match memo with Some m -> float_of_int (f m) | None -> 0.0 in
    add_layers r
      [
        ("serve.requests", float_of_int c.sent);
        ("serve.codec_s", codec);
        ("serve.open_s", sum c.open_s);
        ("serve.opens", float_of_int (List.length c.open_s));
        ("serve.step_s", sum c.step_s);
        ("serve.steps", float_of_int (List.length c.step_s));
        ("serve.queue_max", float_of_int c.queue_max);
        ("serve.memo_lookups", m (fun m -> m.P.m_lookups));
        ("serve.memo_hits", m (fun m -> m.P.m_hits));
        ("serve.memo_cross_hits", m (fun m -> m.P.m_cross_hits));
        ("serve.memo_entries", m (fun m -> m.P.m_entries));
      ]
  end

(* --- Rounds in one process -------------------------------------------- *)

(* How many consecutive rounds one child process runs.  The batch
   workloads run each round in a fresh process, as their commands run;
   serve runs all of a run's episodes in one long-lived process, as the
   daemon does, each episode on a fresh server after [Runs.clear_cache]
   and a compaction, so every episode starts from the same cache state. *)
let rounds_per_process = function
  | Tune | Paper_model | Table1 -> 1
  | Serve -> max_int

(* Run rounds [first, first + count) and print, per round, its operation
   lines and then its round line.  An exception that escapes a workload
   fails the operation in flight; the round line still reports what was
   measured.  With [trace], odd rounds are traced. *)
let run_rounds w ~seed ~first ~count ~trace =
  for round = first to first + count - 1 do
    if round > first then begin
      Runs.clear_cache ();
      Gc.compact ()
    end;
    let traced = trace && round mod 2 = 1 in
    let r = new_round () and gc0 = Gc.quick_stat () in
    (match
       match w with
       | Tune -> tune r ~traced ~seed ~round
       | Paper_model -> paper_model r ~traced ~seed ~round
       | Table1 -> table1 r ~traced ~seed ~round
       | Serve -> serve r ~traced ~seed ~round
     with
    | () -> ()
    | exception e ->
        emit_op
          ~name:(Printf.sprintf "%s/r%d/aborted" (to_string w) round)
          ~error:(Printexc.to_string e) false);
    emit (round_json r ~gc0)
  done
