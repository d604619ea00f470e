(** The paper's active learning loop (Algorithm 1), generalized over
    sampling plan and selection strategy.

    Three sampling plans reproduce the paper's three competitors:
    - [Fixed n] — the classical plan: each selected training example is
      profiled [n] times and its mean becomes one model observation;
      candidates are always unseen ([n = 35] is the baseline of
      Balaprakash et al., [n = 1] the "one observation" variant);
    - [Adaptive] — the paper's contribution: one profiling run per loop
      iteration, with previously-visited configurations kept in the
      candidate set until they accumulate [max_obs] observations, and
      only while their observed mean deviates from the model's
      prediction by more than two predictive standard deviations (the
      paper's "likely to contradict what we predict" criterion), so the
      learner itself decides when a noisy configuration deserves another
      sample (sequential analysis).

    Selection strategies: [Alc] (Cohn's expected reduction of average
    predictive variance — the paper's choice), [Mackay] (maximum
    predictive variance), and [Random_selection] (ablation). *)

type plan = Fixed of int | Adaptive of { max_obs : int }

type strategy = Alc | Mackay | Random_selection

type settings = {
  n_init : int;  (** Seed examples (paper: 5). *)
  n_obs_init : int;  (** Observations per seed example (paper: 35). *)
  n_candidates : int;  (** Fresh candidates per iteration (paper: 500). *)
  n_max : int;  (** Total loop iterations (paper: 2,500). *)
  plan : plan;
  strategy : strategy;
  model : Surrogate.factory;
  eval_every : int;  (** Record an error point every this many iterations. *)
  ref_size : int;  (** Reference-set size for ALC. *)
  empirical_prior : bool;
      (** Centre the leaf prior's noise scale on the within-configuration
          variance observed during seeding (on by default).  The seed
          phase exists to give the learner "a quick and accurate look at
          the search space"; without this calibration the revisit payoff
          reflects the prior instead of the measured noise. *)
  batch_size : int;
      (** Training examples selected per loop iteration.  1 is the paper's
          sequential algorithm; larger values model the parallel variant
          it mentions (select the top-k scoring candidates, profile them
          together). *)
  budget : float option;
      (** Stop once the cumulative compile + run cost reaches this many
          simulated seconds (the paper's "wall-clock time" completion
          criterion), checked between batches alongside [n_max].  [None]
          in both presets; a serve session's budget sets it. *)
}

val paper_settings : settings
(** The paper's parameters: ninit 5, nobs 35, nc 500, nmax 2,500, 5,000
    particles, adaptive plan with ALC.  Expensive. *)

val scaled_settings : settings
(** Laptop-scale defaults used by the bench harness: same structure, nmax
    400, nc 60, 120 particles. *)

type eval_point = {
  iteration : int;  (** Loop iterations completed. *)
  examples : int;  (** Distinct configurations profiled. *)
  observations : int;  (** Total profiling runs. *)
  cost_seconds : float;  (** Cumulative compile + run cost so far. *)
  rmse : float;  (** Error on the held-out test set, seconds. *)
}

type outcome = {
  curve : eval_point list;  (** Chronological. *)
  total_cost : float;
  total_runs : int;
  distinct_examples : int;
  final_rmse : float;
  predict : Problem.config -> float;
      (** The trained model, as a runtime predictor in seconds. *)
}

(** {1 Running and checkpointing}

    A run is {!start}ed, then {!step}ped from one loop boundary to a
    later one; {!run} steps it to completion.  A {!state} is what
    {!start} cannot recompute from its other arguments but needs to
    continue a run from a loop boundary and reproduce the uninterrupted
    run byte-for-byte.  The ALC reference set is not part of it: it is
    the learner stream's first draws from the training pool, which
    {!start} makes again on resume.  Nor is the surrogate: its
    posterior is a deterministic function of its creation-time rng
    cursor and the ordered observation log, which every run keeps, so
    resume restores [st_rng_model], re-runs the factory, and replays
    [st_observe_log] — exact for any surrogate.  Serialize with
    {!Checkpoint}. *)

type obs_entry = {
  obs_key : string;
  obs_n : int;
  obs_sum : float;
  obs_config : Problem.config;
}

type state = {
  st_iteration : int;
  st_run_counter : int;
  st_attempt_counter : int;  (** Global fault-attempt counter. *)
  st_cost : Cost.snapshot;
  st_obs : obs_entry list;  (** In first-insertion order (load-bearing). *)
  st_dead : string list;  (** Retry-exhausted configs, insertion order. *)
  st_scaler_mean : float;
  st_scaler_std : float;
  st_noise_hint : float option;
  st_observe_log : (float array * float) list;
      (** Chronological (features, standardized response) pairs fed to the
          surrogate. *)
  st_rng_model : Altune_prng.Rng.state;
      (** Learner-stream cursor just before the model factory ran. *)
  st_rng : Altune_prng.Rng.state;  (** Cursor at the checkpoint. *)
  st_curve : eval_point list;  (** Chronological. *)
}

type t
(** A run in progress, paused at a loop boundary. *)

val start :
  ?fault:Altune_exec.Fault.t ->
  ?resume:state ->
  ?exec_pool:Altune_exec.Pool.t ->
  ?events:Altune_obs.Events.stream ->
  Problem.t ->
  Dataset.t ->
  settings ->
  rng:Altune_prng.Rng.t ->
  t
(** Validate [settings] and run everything before the loop: the seed
    phase, or with [?resume] the restore of a {!state} (pass the same
    problem, dataset, settings, fault spec and seed) and the replay of
    its observation log.  Deterministic given the rng state.

    [?fault] injects deterministic failures into every profiling attempt:
    a failed attempt is retried with exponential simulated-cost backoff
    (all lost seconds charged to the accumulated cost), and a
    configuration that exhausts its retries is marked dead and excluded
    from the candidate set — the run degrades gracefully instead of
    aborting.  Fault draws never touch the learner's stream, so omitting
    [?fault] reproduces the historical behavior exactly.

    [?exec_pool] hands the surrogate a worker pool for its internal data
    parallelism (particle reweighting, ALC candidate scoring).  Purely a
    performance knob: outcomes are bit-identical with or without it, at
    any job count.

    [?events] is the run's event stream: the run emits its decisions on
    it from every step, on whichever domain steps it, and without one it
    emits nothing.  Outcomes are the same with or without it. *)

val step : t -> iterations:int -> outcome option
(** Run the loop to the first boundary at least [iterations] (>= 1)
    past the last pause and pause there ([None]), or until the run stops
    ([Some outcome], which later steps return again).  Any sequence of
    steps gives the outcome and events of one uninterrupted run.  Step a
    run from one domain at a time. *)

val state : t -> state
(** The resume point at the current loop boundary, in O(observations). *)

type progress = {
  pr_iteration : int;  (** Loop iterations completed. *)
  pr_examples : int;  (** Distinct configurations profiled. *)
  pr_observations : int;  (** Profiling runs charged ({!Cost.runs}). *)
  pr_cost_s : float;  (** {!Cost.total_seconds}: run + compile + failure. *)
  pr_rmse : float option;  (** The last recorded curve point's RMSE. *)
}

val progress : t -> progress
(** Where the run stands, read from the loop's own counters in O(1).
    After the run stops it agrees with the {!outcome}: the last curve
    point's iteration, [distinct_examples], [total_runs], [total_cost]
    and [final_rmse]. *)

val run :
  ?fault:Altune_exec.Fault.t ->
  ?resume:state ->
  ?exec_pool:Altune_exec.Pool.t ->
  ?events:Altune_obs.Events.stream ->
  Problem.t ->
  Dataset.t ->
  settings ->
  rng:Altune_prng.Rng.t ->
  outcome
(** {!start}, then {!step} until the run stops.  [run], {!start} and
    {!step} each trace one [learner.run] span. *)
