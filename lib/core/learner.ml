module Rng = Altune_prng.Rng
module Metrics = Altune_stats.Metrics
module Obs_metrics = Altune_obs.Metrics
module Welford = Altune_stats.Welford
module Trace = Altune_obs.Trace
module Events = Altune_obs.Events
module Fault = Altune_exec.Fault

type plan = Fixed of int | Adaptive of { max_obs : int }
type strategy = Alc | Mackay | Random_selection

type settings = {
  n_init : int;
  n_obs_init : int;
  n_candidates : int;
  n_max : int;
  plan : plan;
  strategy : strategy;
  model : Surrogate.factory;
  eval_every : int;
  ref_size : int;
  empirical_prior : bool;
  batch_size : int;
  budget : float option;
}

(* Predictive standard deviations by which a visited configuration's
   observed mean must deviate from the model's prediction to stay a
   candidate (the revisit test in [start]). *)
let revisit_threshold = 2.0

let paper_settings =
  {
    n_init = 5;
    n_obs_init = 35;
    n_candidates = 500;
    n_max = 2500;
    plan = Adaptive { max_obs = 35 };
    strategy = Alc;
    model = Surrogate.dynatree ~particles:5000 ();
    eval_every = 25;
    ref_size = 300;
    empirical_prior = true;
    batch_size = 1;
    budget = None;
  }

let scaled_settings =
  {
    n_init = 5;
    n_obs_init = 35;
    n_candidates = 60;
    n_max = 400;
    plan = Adaptive { max_obs = 35 };
    strategy = Alc;
    model = Surrogate.dynatree ~particles:120 ();
    eval_every = 10;
    ref_size = 150;
    empirical_prior = true;
    batch_size = 1;
    budget = None;
  }

type eval_point = {
  iteration : int;
  examples : int;
  observations : int;
  cost_seconds : float;
  rmse : float;
}

type outcome = {
  curve : eval_point list;
  total_cost : float;
  total_runs : int;
  distinct_examples : int;
  final_rmse : float;
  predict : Problem.config -> float;
}

type obs_entry = {
  obs_key : string;
  obs_n : int;
  obs_sum : float;
  obs_config : Problem.config;
}

type state = {
  st_iteration : int;
  st_run_counter : int;
  st_attempt_counter : int;
  st_cost : Cost.snapshot;
  st_obs : obs_entry list;
  st_dead : string list;
  st_scaler_mean : float;
  st_scaler_std : float;
  st_noise_hint : float option;
  st_observe_log : (float array * float) list;
  st_rng_model : Rng.state;
  st_rng : Rng.state;
  st_curve : eval_point list;
}

type progress = {
  pr_iteration : int;
  pr_examples : int;
  pr_observations : int;
  pr_cost_s : float;
  pr_rmse : float option;
}

(* A run between steps: closures over [start_run]'s local state. *)
type t = {
  problem_name : string;
  advance : int -> outcome option;
  capture : unit -> state;
  progress : unit -> progress;
}

(* Fault-injection instruments (process-wide).  Eager, not [lazy]:
   learner runs on different domains would force a lazy handle
   concurrently, which raises [CamlinternalLazy.Undefined]. *)
let m_fault_crash = Obs_metrics.counter "learner.fault.crash"
let m_fault_timeout = Obs_metrics.counter "learner.fault.timeout"
let m_fault_corrupt = Obs_metrics.counter "learner.fault.corrupt"
let m_fault_retry = Obs_metrics.counter "learner.fault.retries"
let m_fault_dead = Obs_metrics.counter "learner.fault.dead"

let validate settings =
  if settings.n_init < 1 then invalid_arg "Learner: n_init < 1";
  if settings.n_obs_init < 1 then invalid_arg "Learner: n_obs_init < 1";
  if settings.n_candidates < 1 then invalid_arg "Learner: n_candidates < 1";
  if settings.n_max < settings.n_init then
    invalid_arg "Learner: n_max < n_init";
  if settings.eval_every < 1 then invalid_arg "Learner: eval_every < 1";
  if settings.batch_size < 1 then invalid_arg "Learner: batch_size < 1";
  (match settings.plan with
  | Fixed n when n < 1 -> invalid_arg "Learner: Fixed plan needs n >= 1"
  | Adaptive { max_obs } when max_obs < 1 ->
      invalid_arg "Learner: Adaptive plan needs max_obs >= 1"
  | Fixed _ | Adaptive _ -> ())

(* Response standardization: the dynamic tree's leaf prior is calibrated
   for roughly unit-scale responses, while runtimes live on arbitrary
   scales.  The affine map is frozen after the seed phase (as the paper
   freezes its feature normalization). *)
type scaler = { mutable mean : float; mutable std : float }

let standardize scaler y = (y -. scaler.mean) /. scaler.std
let unstandardize scaler z = (z *. scaler.std) +. scaler.mean

let plan_string = function
  | Fixed n -> Printf.sprintf "fixed:%d" n
  | Adaptive { max_obs } -> Printf.sprintf "adaptive:%d" max_obs

let strategy_string = function
  | Alc -> "alc"
  | Mackay -> "mackay"
  | Random_selection -> "random"

let start_run ?fault ?resume ?exec_pool ?events (problem : Problem.t)
    (dataset : Dataset.t) settings ~rng:rng0 =
  validate settings;
  (* The learner's private stream lives in a cell so that resume can point
     it at a restored cursor; every draw dereferences at call time. *)
  let rng = ref (Rng.split rng0) in
  let cost =
    match resume with
    | None -> Cost.create ()
    | Some st -> Cost.of_snapshot st.st_cost
  in
  let run_counter = ref 0 in
  let attempt_counter = ref 0 in
  (* Each simulated compile+profile is one traced span carrying the
     simulated seconds it charged, so the paper's cost curves can be
     reconstructed from the trace alone. *)
  let measure config =
    Trace.with_span ~name:"learner.profile" ~phase:"profiling" (fun () ->
        incr run_counter;
        let compile_before = Cost.compile_seconds cost in
        Cost.charge_compile cost ~key:(Problem.key config)
          (problem.compile_seconds config);
        let d = problem.measure ~rng:!rng ~run_index:!run_counter config in
        Cost.charge_run cost d;
        if Trace.enabled () then
          Trace.add_attrs
            [
              ("run_index", Trace.Int !run_counter);
              ("sim_run_s", Trace.Float d);
              ( "sim_compile_s",
                Trace.Float (Cost.compile_seconds cost -. compile_before) );
              ("sim_total_s", Trace.Float (Cost.total_seconds cost));
            ];
        d)
  in
  let pool = dataset.train_configs in
  if Array.length pool = 0 then invalid_arg "Learner.run: empty train pool";
  (* Per visited configuration: observation count and running sum (the
     observed mean drives revisit eligibility); doubles as the visited
     set.  [obs_order] remembers first-insertion order so a resumed run
     can rebuild the table with the same fold order (OCaml's Hashtbl
     keeps a key's bucket position across [replace], so an identical
     insertion sequence into an identical initial capacity reproduces
     iteration order exactly — and fold order feeds candidate-list order,
     which feeds rng draws). *)
  let obs_count : (string, int * float * Problem.config) Hashtbl.t =
    Hashtbl.create 1024
  in
  let obs_order = ref [] in
  let seen key = Hashtbl.mem obs_count key in
  let note_obs config n sum =
    let key = Problem.key config in
    let prev_n, prev_sum =
      match Hashtbl.find_opt obs_count key with
      | Some (c, s, _) -> (c, s)
      | None ->
          obs_order := key :: !obs_order;
          (0, 0.0)
    in
    Hashtbl.replace obs_count key (prev_n + n, prev_sum +. sum, config)
  in
  (* Configurations that exhausted their fault retries: excluded from both
     fresh sampling and the revisit candidate set, never aborting the run.
     Empty (and behaviorally invisible) unless faults are injected. *)
  let dead : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let dead_order = ref [] in
  let mark_dead key =
    Hashtbl.replace dead key ();
    dead_order := key :: !dead_order
  in
  (* One profiling attempt under the fault model.  The verdict for the
     [n]-th attempt of the run is a pure function of (fault seed, spec,
     config key, n): the learner loop is sequential, so the global attempt
     counter is schedule-independent, and fault draws never touch the
     learner's own stream — with no spec the measurement path is exactly
     the fault-free one. *)
  let measure_faulty config =
    match fault with
    | None -> Some (measure config)
    | Some fi ->
        let spec = Fault.spec fi in
        let key = Problem.key config in
        let rec go local =
          let verdict = Fault.draw fi ~key ~attempt:!attempt_counter in
          incr attempt_counter;
          match verdict with
          | Fault.Ok -> Some (measure config)
          | (Fault.Crash | Fault.Timeout _ | Fault.Corrupt) as v ->
              let kind, counter, lost =
                match v with
                | Fault.Crash ->
                    (* The attempt dies in (or before) compilation: the
                       build time is wasted and the key is not marked
                       compiled. *)
                    ("crash", m_fault_crash, problem.compile_seconds config)
                | Fault.Timeout s ->
                    (* The binary built (cached as usual); the profiling
                       run burned its budget and was killed. *)
                    Cost.charge_compile cost ~key
                      (problem.compile_seconds config);
                    ("timeout", m_fault_timeout, s)
                | Fault.Corrupt ->
                    (* The run completed — consuming a measurement draw
                       and its simulated duration — but produced garbage,
                       so the seconds are charged as waste, not as a
                       usable observation. *)
                    Cost.charge_compile cost ~key
                      (problem.compile_seconds config);
                    incr run_counter;
                    let d =
                      problem.measure ~rng:!rng ~run_index:!run_counter config
                    in
                    ("corrupt", m_fault_corrupt, d)
                | Fault.Ok -> assert false
              in
              let charged =
                lost +. Fault.backoff_seconds spec ~failures:(local + 1)
              in
              Cost.charge_failure cost charged;
              Obs_metrics.incr counter;
              Trace.with_span ~name:"learner.fault" ~phase:"profiling"
                ~attrs:
                  [
                    ("config", Trace.String key);
                    ("fault", Trace.String kind);
                    ("attempt", Trace.Int local);
                    ("lost_s", Trace.Float charged);
                  ]
                (fun () -> ());
              (match events with
              | None -> ()
              | Some ev ->
                  Events.emit ev
                    (Fault { config = key; attempt = local; fault = kind;
                             lost_s = charged }));
              if local >= spec.max_retries then begin
                mark_dead key;
                Obs_metrics.incr m_fault_dead;
                (match events with
                | None -> ()
                | Some ev ->
                    Events.emit ev
                      (Fault
                         { config = key; attempt = local; fault = "dead";
                           lost_s = 0.0 }));
                None
              end
              else begin
                Obs_metrics.incr m_fault_retry;
                go (local + 1)
              end
        in
        go 0
  in
  (* [n] usable measurements of [config], in order, or [None] once it
     goes dead. *)
  let measure_many config n =
    let rec go i acc =
      if i = n then Some (List.rev acc)
      else
        match measure_faulty config with
        | Some y -> go (i + 1) (y :: acc)
        | None -> None
    in
    go 0 []
  in
  let sample_unseen n =
    (* Rejection sampling from the pool; the pool is much larger than the
       visited set in any realistic run, but guard against exhaustion. *)
    let out = ref [] in
    let found = ref 0 in
    let attempts = ref 0 in
    let max_attempts = 60 * n in
    let batch_seen = Hashtbl.create (2 * n) in
    while !found < n && !attempts < max_attempts do
      incr attempts;
      let c = pool.(Rng.int !rng (Array.length pool)) in
      let k = Problem.key c in
      if
        (not (seen k))
        && (not (Hashtbl.mem dead k))
        && not (Hashtbl.mem batch_seen k)
      then begin
        Hashtbl.replace batch_seen k ();
        out := c :: !out;
        incr found
      end
    done;
    !out
  in
  let scaler = { mean = 0.0; std = 1.0 } in
  (* Reference set for ALC: a fixed random subset of the training pool,
     embedded once.  These are the stream's first draws, so a resumed run
     makes them again, then moves to the checkpoint's pre-factory
     cursor. *)
  let refs =
    Array.init (min settings.ref_size (Array.length pool)) (fun _ ->
        problem.features pool.(Rng.int !rng (Array.length pool)))
  in
  (match resume with
  | None -> ()
  | Some st -> rng := Rng.restore st.st_rng_model);
  (* Fresh start: run the seed phase (seed sampling, seed profiling,
     scaler/noise calibration, model creation).
     Resume: restore every piece of that state from the checkpoint, then
     rebuild the model deterministically — the surrogate's posterior is a
     function of (its creation-time rng cursor, the ordered observation
     log), so restoring the pre-factory cursor, re-running the factory and
     replaying the log reproduces it exactly, for any surrogate. *)
  let noise_hint, rng_model_state, model, seed_means =
    match resume with
    | None ->
        (* --- Seed phase --- *)
        let seed_configs =
          Trace.with_span ~name:"learner.seed-sample" ~phase:"candidate-gen"
            (fun () -> sample_unseen settings.n_init)
        in
        (* Every seed configuration is about to be profiled: warm their
           deterministic evaluations as one batch (a pool fan-out when
           the problem has a pool).  No rng is consumed, so the
           measurement stream below is untouched. *)
        if List.length seed_configs > 1 then
          Trace.with_span ~name:"learner.prepare" ~phase:"profiling"
            (fun () -> problem.prepare seed_configs);
        let seed_welford = ref Welford.empty in
        let seed_data =
          List.filter_map
            (fun config ->
              let per_example =
                match settings.plan with
                | Fixed n -> n
                | Adaptive _ -> settings.n_obs_init
              in
              match measure_many config per_example with
              | None -> None (* died under fault injection: drop it *)
              | Some samples ->
                  List.iter
                    (fun y -> seed_welford := Welford.add !seed_welford y)
                    samples;
                  note_obs config per_example
                    (List.fold_left ( +. ) 0.0 samples);
                  Some (config, samples))
            seed_configs
        in
        if seed_data = [] then
          failwith
            "Learner.run: every seed configuration exhausted its fault \
             retries; nothing to train on";
        scaler.mean <- Welford.mean !seed_welford;
        scaler.std <-
          (let s = Welford.std !seed_welford in
           if s > 0.0 && Float.is_finite s then s else 1.0);
        (* Noise hint for the surrogate's empirical prior: the mean
           within-configuration variance seen during seeding, in
           standardized units.  Without this calibration a default noise
           prior dwarfs the true measurement noise on quiet benchmarks and
           the learner over-revisits: expected variance reductions then
           reflect the prior, not the data. *)
        let noise_hint =
          if not settings.empirical_prior then None
          else
            Some
              (List.fold_left
                 (fun acc (_, samples) ->
                   acc
                   +. Welford.variance
                        (Welford.of_array (Array.of_list samples)))
                 0.0 seed_data
              /. float_of_int (max 1 (List.length seed_data))
              /. (scaler.std *. scaler.std))
        in
        let rng_model_state = Rng.capture !rng in
        let model = settings.model ~noise_hint ~rng:!rng ~dim:problem.dim in
        (* Seed examples enter the model as their mean: the seed phase's
           many observations exist to give the learner an accurate first
           look, and a mean is that look.  (Feeding the raw replicates
           instead makes every particle spend structure on five
           x-locations it has seen 35 times.) *)
        let seed_means =
          List.map
            (fun (config, samples) ->
              ( config,
                List.fold_left ( +. ) 0.0 samples
                /. float_of_int (List.length samples) ))
            seed_data
        in
        Surrogate.set_pool model exec_pool;
        (noise_hint, rng_model_state, model, seed_means)
    | Some st ->
        List.iter
          (fun e ->
            Hashtbl.replace obs_count e.obs_key (e.obs_n, e.obs_sum, e.obs_config);
            obs_order := e.obs_key :: !obs_order)
          st.st_obs;
        List.iter mark_dead st.st_dead;
        scaler.mean <- st.st_scaler_mean;
        scaler.std <- st.st_scaler_std;
        run_counter := st.st_run_counter;
        attempt_counter := st.st_attempt_counter;
        (* [rng] currently sits at the pre-factory cursor: re-run the
           factory (replaying its creation-time draws), replay the
           observation log, then jump to the checkpointed cursor. *)
        let model =
          settings.model ~noise_hint:st.st_noise_hint ~rng:!rng
            ~dim:problem.dim
        in
        Surrogate.set_pool model exec_pool;
        List.iter (fun (f, z) -> Surrogate.observe model f z) st.st_observe_log;
        rng := Rng.restore st.st_rng;
        (st.st_noise_hint, st.st_rng_model, model, [])
  in
  (* Learner telemetry (Altune_obs.Events), on the run's own stream if
     it was given one: pure observation of decisions already made —
     emission consumes no randomness and touches no state the loop reads,
     so results are byte-identical with it on or off.  Work done only for
     the events (the reference-set variance, the tree stats, [prev_obs])
     stays behind the same test. *)
  (match events with
  | None -> ()
  | Some ev ->
      Events.emit ev
        (Start
           {
             plan = plan_string settings.plan;
             strategy = strategy_string settings.strategy;
             model = Surrogate.name model;
             dim = problem.dim;
             pool = Array.length pool;
             n_max = settings.n_max;
           }));
  (* The ordered observation log is what lets a checkpoint rebuild the
     surrogate. *)
  let observe_log =
    ref (match resume with None -> [] | Some st -> List.rev st.st_observe_log)
  in
  let observe_raw config y =
    Trace.with_span ~name:"learner.observe" ~phase:"tree-update" (fun () ->
        let f = problem.features config in
        let z = standardize scaler y in
        observe_log := (f, z) :: !observe_log;
        Surrogate.observe model f z)
  in
  List.iter (fun (config, mean) -> observe_raw config mean) seed_means;
  (* --- Evaluation --- *)
  let test_features = Array.map problem.features dataset.test_configs in
  let rmse () =
    Trace.with_span ~name:"learner.rmse" ~phase:"eval" (fun () ->
        let predicted =
          Array.map
            (fun f -> unstandardize scaler (Surrogate.predict model f).mean)
            test_features
        in
        Metrics.rmse ~predicted ~observed:dataset.test_means)
  in
  let curve =
    ref (match resume with None -> [] | Some st -> List.rev st.st_curve)
  in
  let record iteration =
    let err = rmse () in
    (match events with
    | None -> ()
    | Some ev ->
        let ref_variance =
          if Array.length refs = 0 then 0.0
          else begin
            let acc = ref 0.0 in
            Array.iter
              (fun f -> acc := !acc +. (Surrogate.predict model f).variance)
              refs;
            !acc /. float_of_int (Array.length refs)
          end
        in
        Events.emit ev
          (Eval
             {
               iteration;
               examples = Hashtbl.length obs_count;
               observations = !run_counter;
               cost_s = Cost.total_seconds cost;
               rmse = err;
               ref_variance;
               tree = Surrogate.tree_stats model;
             }));
    curve :=
      {
        iteration;
        examples = Hashtbl.length obs_count;
        observations = !run_counter;
        cost_seconds = Cost.total_seconds cost;
        rmse = err;
      }
      :: !curve
  in
  (match resume with None -> record settings.n_init | Some _ -> ());
  (* --- Active learning loop --- *)
  let score_all candidates =
    match settings.strategy with
    | Random_selection ->
        List.map (fun c -> (c, Rng.uniform !rng)) candidates
    | Mackay ->
        List.map
          (fun c ->
            (c, Surrogate.predictive_variance model (problem.features c)))
          candidates
    | Alc ->
        let arr = Array.of_list candidates in
        let scores =
          Surrogate.alc_scores model
            ~candidates:(Array.map problem.features arr)
            ~refs
        in
        Array.to_list (Array.mapi (fun i c -> (c, scores.(i))) arr)
  in
  (* Top-[k] candidates by score, stable on ties so fresh candidates (which
     precede revisits in the list) win them.  Returns each selection with
     its score and fresh-vs-revisit provenance for the event stream. *)
  let select_batch k ~fresh ~revisits =
    match fresh @ revisits with
    | [] -> []
    | candidates ->
        Trace.with_span ~name:"learner.select" ~phase:"alc"
          ~attrs:[ ("candidates", Trace.Int (List.length candidates)) ]
          (fun () ->
            let scored = score_all candidates in
            let n_fresh = List.length fresh in
            let tagged =
              List.mapi (fun i (c, s) -> (c, s, i >= n_fresh)) scored
            in
            let sorted =
              List.stable_sort
                (fun (_, a, _) (_, b, _) -> Float.compare b a)
                tagged
            in
            List.filteri (fun i _ -> i < k) sorted)
  in
  let should_stop iteration =
    iteration >= settings.n_max
    || (match settings.budget with
       | Some budget -> Cost.total_seconds cost >= budget
       | None -> false)
  in
  let iteration =
    ref (match resume with None -> settings.n_init | Some st -> st.st_iteration)
  in
  let capture_state () =
    {
      st_iteration = !iteration;
      st_run_counter = !run_counter;
      st_attempt_counter = !attempt_counter;
      st_cost = Cost.snapshot cost;
      st_obs =
        List.rev_map
          (fun key ->
            let n, sum, config = Hashtbl.find obs_count key in
            { obs_key = key; obs_n = n; obs_sum = sum; obs_config = config })
          !obs_order;
      st_dead = List.rev !dead_order;
      st_scaler_mean = scaler.mean;
      st_scaler_std = scaler.std;
      st_noise_hint = noise_hint;
      st_observe_log = List.rev !observe_log;
      st_rng_model = rng_model_state;
      st_rng = Rng.capture !rng;
      st_curve = List.rev !curve;
    }
  in
  let stopped = ref (should_stop !iteration) in
  (* One pass of the active-learning loop: candidate generation,
     selection, and the profiling of one batch. *)
  let loop_body () =
    let fresh, revisits =
      Trace.with_span ~name:"learner.candidates" ~phase:"candidate-gen"
        (fun () ->
          let fresh = sample_unseen settings.n_candidates in
          let revisits =
            (* A visited configuration re-enters the candidate set only
               while it is of continued interest: under the observation cap
               AND with an observed mean that sticks out from the model's
               local pattern.  This is the paper's criterion -- extra runs
               are worth their cost only when they are likely to contradict
               what the model predicts. *)
            match settings.plan with
            | Fixed _ -> []
            | Adaptive { max_obs } ->
                Hashtbl.fold
                  (fun key (count, sum, config) acc ->
                    if count >= max_obs || Hashtbl.mem dead key then acc
                    else begin
                      let f = problem.features config in
                      let p = Surrogate.predict model f in
                      let observed_mean =
                        standardize scaler (sum /. float_of_int count)
                      in
                      let sd = sqrt (Float.max 1e-12 p.variance) in
                      if
                        Float.abs (observed_mean -. p.mean)
                        > revisit_threshold *. sd
                      then config :: acc
                      else acc
                    end)
                  obs_count []
          in
          (fresh, revisits))
    in
    let batch =
      let remaining = settings.n_max - !iteration in
      select_batch (min settings.batch_size remaining) ~fresh ~revisits
    in
    if batch = [] then stopped := true
    else begin
      (* Warm a multi-candidate batch as one group, so a problem with a
         pool evaluates its members in parallel.  Deterministic,
         rng-free, hence byte-inert on the sequential measurement path
         below. *)
      if List.length batch > 1 then
        Trace.with_span ~name:"learner.prepare" ~phase:"profiling" (fun () ->
            problem.prepare (List.map (fun (config, _, _) -> config) batch));
      List.iter
        (fun (config, score, revisit) ->
          incr iteration;
          let prev_obs =
            match events with
            | None -> 0
            | Some _ -> (
                match Hashtbl.find_opt obs_count (Problem.key config) with
                | Some (c, _, _) -> c
                | None -> 0)
          in
          (match settings.plan with
          | Fixed n -> (
              match measure_many config n with
              | Some samples ->
                  let sum = List.fold_left ( +. ) 0.0 samples in
                  note_obs config n sum;
                  observe_raw config (sum /. float_of_int n)
              | None -> () (* went dead; the iteration's budget is spent *))
          | Adaptive _ -> (
              match measure_faulty config with
              | Some y ->
                  note_obs config 1 y;
                  observe_raw config y
              | None -> ()));
          (match events with
          | None -> ()
          | Some ev ->
              Events.emit ev
                (Select
                   {
                     iteration = !iteration;
                     config = Problem.key config;
                     score;
                     revisit;
                     config_obs = prev_obs;
                     examples = Hashtbl.length obs_count;
                     observations = !run_counter;
                     cost_s = Cost.total_seconds cost;
                   }));
          if
            !iteration mod settings.eval_every = 0
            || !iteration = settings.n_max
          then record !iteration)
        batch;
      stopped := should_stop !iteration
    end
  in
  (* Runs cut short before [n_max] (cost budget, no candidates left) still
     end with a recorded point. *)
  let finish () =
    (match !curve with
    | last :: _ when last.iteration = !iteration -> ()
    | _ -> record !iteration);
    let curve = List.rev !curve in
    let final_rmse =
      match List.rev curve with [] -> nan | last :: _ -> last.rmse
    in
    (match events with
    | None -> ()
    | Some ev ->
        Events.emit ev
          (Finish
             {
               iterations = !iteration;
               examples = Hashtbl.length obs_count;
               observations = !run_counter;
               cost_s = Cost.total_seconds cost;
               rmse = final_rmse;
             }));
    {
      curve;
      total_cost = Cost.total_seconds cost;
      total_runs = Cost.runs cost;
      distinct_examples = Hashtbl.length obs_count;
      final_rmse;
      predict =
        (fun config ->
          unstandardize scaler
            (Surrogate.predict model (problem.features config)).mean);
    }
  in
  let last_pause = ref !iteration in
  let finished = ref None in
  let advance iterations =
    while (not !stopped) && !iteration - !last_pause < iterations do
      loop_body ()
    done;
    last_pause := !iteration;
    if !stopped && Option.is_none !finished then finished := Some (finish ());
    !finished
  in
  let progress () =
    {
      pr_iteration = !iteration;
      pr_examples = Hashtbl.length obs_count;
      pr_observations = Cost.runs cost;
      pr_cost_s = Cost.total_seconds cost;
      pr_rmse = (match !curve with [] -> None | last :: _ -> Some last.rmse);
    }
  in
  { problem_name = problem.name; advance; capture = capture_state; progress }

let traced problem_name f =
  Trace.with_span ~name:"learner.run"
    ~attrs:[ ("problem", Trace.String problem_name) ]
    f

let start ?fault ?resume ?exec_pool ?events (problem : Problem.t) dataset
    settings ~rng =
  traced problem.name (fun () ->
      start_run ?fault ?resume ?exec_pool ?events problem dataset settings
        ~rng)

let step t ~iterations =
  if iterations < 1 then invalid_arg "Learner.step: iterations < 1";
  traced t.problem_name (fun () -> t.advance iterations)

let state t = t.capture ()
let progress t = t.progress ()

let run ?fault ?resume ?exec_pool ?events (problem : Problem.t) dataset
    settings ~rng =
  traced problem.name (fun () ->
      let t =
        start_run ?fault ?resume ?exec_pool ?events problem dataset settings
          ~rng
      in
      Option.get (t.advance max_int))
