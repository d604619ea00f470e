module Spapt = Altune_spapt.Spapt
module Scale = Altune_experiments.Scale
module Adapter = Altune_experiments.Adapter
module Runs = Altune_experiments.Runs
module Learner = Altune_core.Learner
module Checkpoint = Altune_core.Checkpoint
module Cost = Altune_core.Cost
module Fault = Altune_exec.Fault
module Rng = Altune_prng.Rng
module Events = Altune_obs.Events
module Pool = Altune_exec.Pool

type config = {
  name : string;
  bench : string;
  scale : Scale.t;
  seed : int;
  fault : Fault.spec option;
  budget : float option;
  n_max : int option;
  checkpoint_path : string option;
}

type phase = Queued | Live | Done | Closed

type t = {
  sid : int;
  config : config;
  bench : Spapt.t;
  pool : Pool.t;
  note : int array -> (unit -> float) -> float;
  events : Events.stream;
  mutable phase : phase;
  mutable learner : Learner.t option;
      (* Live from the first step until the run completes or closes. *)
  mutable outcome : Learner.outcome option;
  mutable closed_view : Protocol.session_view option;
      (* Frozen at close, when everything else is dropped. *)
}

let create ~id ~bench ~pool ~note config =
  {
    sid = id;
    config;
    bench;
    pool;
    note;
    events = Events.stream ("serve/" ^ config.name);
    phase = Queued;
    learner = None;
    outcome = None;
    closed_view = None;
  }

let id t = t.sid
let config t = t.config
let phase t = t.phase
let admit t = if t.phase = Queued then t.phase <- Live
let stock_settings t = t.config.n_max = None && t.config.budget = None

let phase_name = function
  | Queued -> "queued"
  | Live -> "live"
  | Done -> "done"
  | Closed -> "closed"

let settings_of (c : config) =
  let s = c.scale.Scale.adaptive in
  let s =
    match c.n_max with None -> s | Some n -> { s with Learner.n_max = n }
  in
  match c.budget with
  | None -> s
  | Some b -> { s with Learner.stop = Learner.Cost_budget b :: s.Learner.stop }

(* Fault seed exactly as [altune tune] derives it, so a served session
   (and its checkpoints) reproduces the standalone run. *)
let fault_seed (c : config) =
  let tune_key = Printf.sprintf "%s/%s/tune/0" c.bench c.scale.Scale.label in
  Rng.derive ~seed:c.seed [ S "fault"; S tune_key ]

(* The dataset is a pure function of (kernel, scale, seed), cached per
   process, so a checkpoint fetches it again rather than the session
   holding it. *)
let dataset t = Runs.dataset_for t.bench t.config.scale ~seed:t.config.seed

let start t =
  (* Only the learner's own evaluations pass through [note]: the dataset
     is generated on the shared instance without it, since charging the
     (process-wide cached) dataset to whichever session generated it
     first would make the accounting depend on the schedule.  [prepare]
     does nothing without a pool, so no evaluation bypasses [measure]
     and [compile_seconds]. *)
  let p = Adapter.problem_of t.bench in
  let problem =
    {
      p with
      measure =
        (fun ~rng ~run_index c ->
          t.note c (fun () -> p.measure ~rng ~run_index c));
      compile_seconds = (fun c -> t.note c (fun () -> p.compile_seconds c));
    }
  in
  let fault =
    Option.map
      (fun sp -> Fault.create sp ~seed:(fault_seed t.config))
      t.config.fault
  in
  Learner.start ?fault ~exec_pool:t.pool problem (dataset t)
    (settings_of t.config)
    ~rng:(Rng.create ~seed:t.config.seed)

let step t ~iterations =
  if t.phase <> Live then
    Error
      (Printf.sprintf "session %S is %s, not live" t.config.name
         (phase_name t.phase))
  else if iterations < 1 then Error "iterations must be at least 1"
  else begin
    Events.with_stream t.events (fun () ->
        let learner =
          match t.learner with
          | Some l -> l
          | None ->
              let l = start t in
              t.learner <- Some l;
              l
        in
        match Learner.step learner ~iterations with
        | None -> ()
        | Some outcome ->
            t.outcome <- Some outcome;
            t.learner <- None;
            t.phase <- Done);
    Ok ()
  end

let save_checkpoint t ~path =
  if not (stock_settings t) then
    Error
      (Printf.sprintf
         "session %S has non-stock settings (n_max/budget override); altune \
          resume rebuilds settings from the scale label, so its checkpoint \
          would not resume faithfully"
         t.config.name)
  else
    match (t.phase, t.learner) with
    | Done, _ ->
        Error
          (Printf.sprintf "session %S already completed" t.config.name)
    | Closed, _ ->
        Error (Printf.sprintf "session %S is closed" t.config.name)
    | _, None ->
        Error
          (Printf.sprintf "session %S has no progress to checkpoint"
             t.config.name)
    | _, Some learner ->
        let meta =
          {
            Checkpoint.bench = t.config.bench;
            scale = t.config.scale.Scale.label;
            seed = t.config.seed;
            every = 1;
            fault =
              Option.map
                (fun sp -> (Fault.to_string sp, fault_seed t.config))
                t.config.fault;
          }
        in
        let st = Learner.state learner in
        Checkpoint.save ~path ~meta (dataset t) st;
        Ok st.Learner.st_iteration

let live_view t ~position =
  let v_state : Protocol.session_state =
    match t.phase with
    | Queued -> Protocol.Queued
    | Live -> Protocol.Live
    | Done -> Protocol.Done
    | Closed -> Protocol.Closed
  in
  let base =
    {
      Protocol.v_session = t.config.name;
      v_state;
      v_position = position;
      v_iteration = 0;
      v_examples = 0;
      v_observations = 0;
      v_cost_s = 0.0;
      v_rmse = None;
    }
  in
  match (t.outcome, t.learner) with
  | Some (o : Learner.outcome), _ ->
      let iteration =
        match List.rev o.curve with
        | [] -> 0
        | (last : Learner.eval_point) :: _ -> last.iteration
      in
      {
        base with
        v_iteration = iteration;
        v_examples = o.distinct_examples;
        v_observations = o.total_runs;
        v_cost_s = o.total_cost;
        v_rmse = Some o.final_rmse;
      }
  | None, Some learner ->
      let st = Learner.state learner in
      let c = st.st_cost in
      {
        base with
        v_iteration = st.st_iteration;
        v_examples = List.length st.st_obs;
        v_observations = c.Cost.snap_runs;
        v_cost_s =
          c.Cost.snap_run_seconds +. c.Cost.snap_compile_seconds
          +. c.Cost.snap_failure_seconds;
        v_rmse =
          (match List.rev st.st_curve with
          | [] -> None
          | (last : Learner.eval_point) :: _ -> Some last.rmse);
      }
  | None, None -> base

let view t ~position =
  match t.closed_view with Some v -> v | None -> live_view t ~position

let close t =
  if t.phase <> Closed then begin
    t.phase <- Closed;
    t.closed_view <- Some (live_view t ~position:None);
    t.learner <- None;
    t.outcome <- None
  end
