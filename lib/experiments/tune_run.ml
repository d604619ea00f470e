module Kernels = Altune_spapt.Kernels
module Dataset = Altune_core.Dataset
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

let savable spec =
  if spec.n_max = None && spec.budget = None then Ok ()
  else
    Error
      "non-stock settings (n_max/budget override); altune resume rebuilds \
       settings from the scale label, so its checkpoint would not resume \
       faithfully"

type t = {
  spec : spec;
  meta : Checkpoint.meta;
  dataset : Dataset.t;
  learner : Learner.t;  (* holds the run's event stream, if any *)
}

(* [fault] pairs the spec's fault spec with the seed of its draws. *)
let launch ?events ?stream ?note ?resume ~pool bench spec ~fault dataset =
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
  let learner =
    Learner.start
      ?fault:(Option.map (fun (sp, seed) -> Fault.create sp ~seed) fault)
      ?resume ~exec_pool:pool ?events problem dataset (settings spec)
      ~rng:(Rng.create ~seed:spec.seed)
  in
  let meta =
    {
      Checkpoint.bench = spec.bench;
      scale = spec.scale.Scale.label;
      seed = spec.seed;
      fault = Option.map (fun (sp, seed) -> (Fault.to_string sp, seed)) fault;
    }
  in
  { spec; meta; dataset; learner }

let start ?events ?stream ?note ~pool bench spec =
  let fault_seed = Runs.fault_seed ~seed:spec.seed (key spec) in
  launch ?events ?stream ?note ~pool bench spec
    ~fault:(Option.map (fun sp -> (sp, fault_seed)) spec.fault)
    (Runs.dataset_for bench spec.scale ~seed:spec.seed)

type saved = {
  saved_spec : spec;
  fault : (Fault.spec * int) option;
  dataset : Dataset.t;
  state : Learner.state;
}

let ( let* ) = Result.bind

let load path =
  let* (meta : Checkpoint.meta), dataset, state =
    Result.map_error (Printf.sprintf "%s: %s" path) (Checkpoint.load path)
  in
  let* scale =
    Option.to_result (Scale.of_label meta.scale)
      ~none:(Printf.sprintf "unknown scale %S in checkpoint" meta.scale)
  in
  let* () =
    if List.mem meta.bench Kernels.names then Ok ()
    else Error (Printf.sprintf "unknown benchmark %S in checkpoint" meta.bench)
  in
  let* fault =
    match meta.fault with
    | None -> Ok None
    | Some (s, seed) ->
        Result.map
          (fun sp -> Some (sp, seed))
          (Result.map_error
             (( ^ ) "bad fault spec in checkpoint: ")
             (Fault.of_string s))
  in
  let saved_spec =
    {
      bench = meta.bench;
      scale;
      seed = meta.seed;
      fault = Option.map fst fault;
      n_max = None;
      budget = None;
    }
  in
  Ok { saved_spec; fault; dataset; state }

let saved_spec s = s.saved_spec

let resume ?events ~pool bench (s : saved) =
  launch ?events ~resume:s.state ~pool bench s.saved_spec ~fault:s.fault
    s.dataset

let step t ~iterations = Learner.step t.learner ~iterations

let progress t = Learner.progress t.learner

let save t ~path =
  let* () = savable t.spec in
  let st = Learner.state t.learner in
  Checkpoint.save ~path ~meta:t.meta t.dataset st;
  Ok st.Learner.st_iteration
