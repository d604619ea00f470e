module Kernels = Altune_spapt.Kernels
module Learner = Altune_core.Learner
module Checkpoint = Altune_core.Checkpoint
module Fault = Altune_exec.Fault
module Rng = Altune_prng.Rng
module Events = Altune_obs.Events

type spec = {
  bench : string;
  scale : Scale.t;
  seed : int;
  fault : Fault.spec option;
  n_max : int option;
  budget : float option;
}

let key spec = Runs.run_key ~bench:spec.bench spec.scale "tune" 0

let settings spec =
  let s = spec.scale.Scale.adaptive in
  let s =
    match spec.n_max with None -> s | Some n -> { s with Learner.n_max = n }
  in
  match spec.budget with
  | None -> s
  | Some b -> { s with Learner.budget = Some b }

let ( let* ) = Result.bind

let spec_of ~bench ~scale ~seed ~fault ~n_max ~budget =
  let* () =
    if List.mem bench Kernels.names then Ok ()
    else
      Error
        (Printf.sprintf "unknown benchmark %S; known: %s" bench
           (String.concat ", " Kernels.names))
  in
  let* scale =
    Option.to_result (Scale.of_label scale)
      ~none:(Printf.sprintf "unknown scale %S" scale)
  in
  let* fault =
    match fault with
    | None -> Ok None
    | Some s ->
        Result.map Option.some
          (Result.map_error (( ^ ) "bad fault spec: ") (Fault.of_string s))
  in
  if
    (match budget with Some b -> b <= 0.0 | None -> false)
    || match n_max with Some n -> n < 1 | None -> false
  then Error "budget and n_max must be positive"
  else Ok { bench; scale; seed; fault; n_max; budget }

type t = {
  spec : spec;
  learner : Learner.t;  (* holds the run's event stream, if any *)
}

let start ?events ?stream ?note ?resume ~pool bench spec =
  let problem =
    match note with
    | None -> Adapter.problem_of ~pool bench
    | Some note ->
        let p = Adapter.problem_of bench in
        {
          p with
          measure =
            (fun ~rng ~run_index c ->
              note c (fun () -> p.measure ~rng ~run_index c));
          compile_seconds = (fun c -> note c (fun () -> p.compile_seconds c));
        }
  in
  let events =
    Option.map
      (fun sink ->
        Events.stream sink (Option.value stream ~default:(key spec)))
      events
  in
  let fault =
    Option.map
      (fun sp ->
        Fault.create sp ~seed:(Runs.fault_seed ~seed:spec.seed (key spec)))
      spec.fault
  in
  let learner =
    Learner.start ?fault ?resume ~exec_pool:pool ?events problem
      (Runs.dataset_for bench spec.scale ~seed:spec.seed)
      (settings spec) ~rng:(Rng.create ~seed:spec.seed)
  in
  { spec; learner }

let load path =
  let* (meta : Checkpoint.meta), state =
    Result.map_error (Printf.sprintf "%s: %s" path) (Checkpoint.load path)
  in
  let* spec =
    Result.map_error
      (fun e -> e ^ " in checkpoint")
      (spec_of ~bench:meta.bench ~scale:meta.scale ~seed:meta.seed
         ~fault:meta.fault ~n_max:meta.n_max ~budget:meta.budget)
  in
  Ok (spec, state)

let step t ~iterations = Learner.step t.learner ~iterations

let progress t = Learner.progress t.learner

let save t ~path =
  let st = Learner.state t.learner in
  let meta =
    {
      Checkpoint.bench = t.spec.bench;
      scale = t.spec.scale.Scale.label;
      seed = t.spec.seed;
      fault = Option.map Fault.to_string t.spec.fault;
      n_max = t.spec.n_max;
      budget = t.spec.budget;
    }
  in
  Result.map
    (fun () -> st.Learner.st_iteration)
    (Checkpoint.save ~path ~meta st)
