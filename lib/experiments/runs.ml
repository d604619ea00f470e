module Spapt = Altune_spapt.Spapt
module Rng = Altune_prng.Rng
module Dataset = Altune_core.Dataset
module Experiment = Altune_core.Experiment
module Learner = Altune_core.Learner
module Pool = Altune_exec.Pool
module Memo = Altune_exec.Memo
module Fault = Altune_exec.Fault
module Trace = Altune_obs.Trace
module Events = Altune_obs.Events

type plan_curves = {
  bench : string;
  all_observations : Experiment.curve;
  one_observation : Experiment.curve;
  variable_observations : Experiment.curve;
}

(* --- Shared execution pool ------------------------------------------- *)

(* One process-wide pool, created lazily so library users that never tune
   the job count still get parallelism, and [set_jobs] (the CLI's
   [-j/--jobs]) can replace it before the first experiment runs. *)
let pool_state = ref (None : Pool.t option)
let requested_jobs = ref (None : int option)
let progress = ref (None : (Pool.event -> unit) option)
let pool_lock = Mutex.create ()

let jobs () =
  Mutex.lock pool_lock;
  let j =
    match !pool_state with
    | Some p -> Pool.jobs p
    | None -> (
        match !requested_jobs with
        | Some j -> j
        | None -> Pool.default_jobs ())
  in
  Mutex.unlock pool_lock;
  j

let set_jobs ?on_event j =
  if j < 1 then invalid_arg "Runs.set_jobs: jobs must be at least 1";
  Mutex.lock pool_lock;
  let old = !pool_state in
  pool_state := None;
  requested_jobs := Some j;
  progress := on_event;
  Mutex.unlock pool_lock;
  Option.iter Pool.shutdown old

let pool () =
  Mutex.lock pool_lock;
  let p =
    match !pool_state with
    | Some p -> p
    | None ->
        let j =
          match !requested_jobs with
          | Some j -> j
          | None -> Pool.default_jobs ()
        in
        let p = Pool.create ?on_event:!progress ~jobs:j () in
        pool_state := Some p;
        p
  in
  Mutex.unlock pool_lock;
  p

(* --- Run identity ------------------------------------------------------ *)

(* The one place a learner run's key and fault seed are spelled out: the
   fault seed is derived from the key, never drawn from a stream, so a
   run sees the same faults at any job count and a checkpoint can record
   the seed verbatim. *)
let run_key ~bench (scale : Scale.t) tag rep =
  Printf.sprintf "%s/%s/%s/%d" bench scale.label tag rep

let fault_seed ~seed key = Rng.derive ~seed [ S "fault"; S key ]

(* --- Caches ----------------------------------------------------------- *)

(* Compute-once memo tables: Table 1, Figure 5 and Figure 6 share curves,
   and with benchmarks fanned out across domains the memo also guarantees
   two domains never duplicate a multi-minute run of the same key. *)
let dataset_cache : (string, Dataset.t) Memo.t = Memo.create ~name:"memo.dataset" ()
let curve_cache : (string, plan_curves) Memo.t = Memo.create ~name:"memo.curves" ()

let clear_cache () =
  Memo.clear dataset_cache;
  Memo.clear curve_cache

let dataset_for bench (scale : Scale.t) ~seed =
  let key = Printf.sprintf "%s/%s/%d" (Spapt.name bench) scale.label seed in
  Memo.find_or_compute dataset_cache key (fun () ->
      Trace.with_span ~name:"runs.dataset" ~phase:"dataset"
        ~attrs:[ ("key", Trace.String key) ]
        (fun () ->
          (* The dataset's test panel is the biggest single evaluation
             batch of a run; the pool lets its prepare fan the panel
             out. *)
          let problem = Adapter.problem_of ~pool:(pool ()) bench in
          let rng =
            Rng.create ~seed:(Rng.derive ~seed [ S "dataset"; S key ])
          in
          Dataset.generate problem ~rng ~n_configs:scale.n_configs
            ~test_fraction:scale.test_fraction ~n_obs:scale.n_obs))

(* --- Parallel plan execution ----------------------------------------- *)

(* Every (plan, repetition) pair is one pool task on the benchmark
   instance it is given, whose evaluation store is domain-safe and
   deterministic, so the tasks share each other's evaluations.  Each task
   derives a private RNG seed and its own run key, so the result is
   independent of the interleaving — curves are bit-identical at any job
   count. *)
let curves_for ?fault bench (scale : Scale.t) ~seed =
  let name = Spapt.name bench in
  let key =
    Printf.sprintf "%s/%s/%d%s" name scale.label seed
      (match fault with
      | None -> ""
      | Some s -> "|fault:" ^ Fault.to_string s)
  in
  Memo.find_or_compute curve_cache key (fun () ->
      Trace.with_span ~name:"runs.curves"
        ~attrs:[ ("key", Trace.String key) ]
      @@ fun () ->
      let dataset = dataset_for bench scale ~seed in
      let plans =
        [
          ("fixed", Scale.fixed scale scale.n_obs);
          ("one", Scale.fixed scale 1);
          ("adaptive", scale.adaptive);
        ]
      in
      let tasks =
        List.concat_map
          (fun (tag, settings) ->
            List.init scale.reps (fun r -> (tag, settings, r)))
          plans
      in
      let task_array = Array.of_list tasks in
      let curves =
        Pool.map
          ~label:(fun i ->
            let tag, _, r = task_array.(i) in
            Printf.sprintf "%s/%s/%s rep %d" name scale.label tag r)
          (pool ())
          (fun (tag, settings, r) ->
            let rep_seed = Rng.derive ~seed [ S tag; I r; S name ] in
            (* Nested fan-out onto the same pool is safe (the helping
               scheduler runs subtasks on the waiting worker), so each
               rep's batch prepares can still use every idle core. *)
            let problem = Adapter.problem_of ~pool:(pool ()) bench in
            let id = run_key ~bench:name scale tag r in
            let fault =
              Option.map
                (fun s -> Fault.create s ~seed:(fault_seed ~seed id))
                fault
            in
            ( tag,
              Events.with_run id (fun () ->
                  (Learner.run ?fault ~exec_pool:(pool ()) problem dataset
                     settings ~rng:(Rng.create ~seed:rep_seed))
                    .curve) ))
          tasks
      in
      let plan tag =
        Experiment.average_curves
          (List.filter_map
             (fun (t, c) -> if String.equal t tag then Some c else None)
             curves)
      in
      {
        bench = name;
        all_observations = plan "fixed";
        one_observation = plan "one";
        variable_observations = plan "adaptive";
      })
