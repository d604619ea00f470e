module Json = Altune_obs.Json
module Rng = Altune_prng.Rng

let version = 1

type meta = {
  bench : string;
  scale : string;
  seed : int;
  fault : (string * int) option;
}

(* --- Encoding ----------------------------------------------------------- *)

(* Floats are stored as the hex of their IEEE-754 bits: resume must
   reproduce the uninterrupted run byte-for-byte, so every float has to
   round-trip exactly (decimal shortest-representation would, but the
   JSON layer renders non-finite floats as null; bits are unambiguous). *)
let f_to_json f = Json.String (Printf.sprintf "%016Lx" (Int64.bits_of_float f))
let i64_to_json i = Json.String (Printf.sprintf "%016Lx" i)
let floats_to_json a = Json.List (List.map f_to_json (Array.to_list a))

let config_to_json (c : Problem.config) =
  Json.List (List.map (fun i -> Json.Int i) (Array.to_list c))

let rng_to_json (s : Rng.state) =
  Json.Obj
    [
      ("s0", i64_to_json s.s0);
      ("s1", i64_to_json s.s1);
      ("s2", i64_to_json s.s2);
      ("s3", i64_to_json s.s3);
      ("spare", f_to_json s.spare);
      ("has_spare", Json.Bool s.has_spare);
    ]

let cost_to_json (s : Cost.snapshot) =
  Json.Obj
    [
      ("run_s", f_to_json s.snap_run_seconds);
      ("compile_s", f_to_json s.snap_compile_seconds);
      ("failure_s", f_to_json s.snap_failure_seconds);
      ("runs", Json.Int s.snap_runs);
      ("failures", Json.Int s.snap_failures);
      ( "compiled",
        Json.List (List.map (fun k -> Json.String k) s.snap_compiled) );
    ]

let obs_to_json (e : Learner.obs_entry) =
  Json.Obj
    [
      ("key", Json.String e.obs_key);
      ("n", Json.Int e.obs_n);
      ("sum", f_to_json e.obs_sum);
      ("config", config_to_json e.obs_config);
    ]

let eval_to_json (p : Learner.eval_point) =
  Json.Obj
    [
      ("iteration", Json.Int p.iteration);
      ("examples", Json.Int p.examples);
      ("observations", Json.Int p.observations);
      ("cost_s", f_to_json p.cost_seconds);
      ("rmse", f_to_json p.rmse);
    ]

let dataset_to_json (d : Dataset.t) =
  Json.Obj
    [
      ( "train",
        Json.List (List.map config_to_json (Array.to_list d.train_configs)) );
      ( "test",
        Json.List (List.map config_to_json (Array.to_list d.test_configs)) );
      ("test_means", floats_to_json d.test_means);
    ]

let state_to_json (st : Learner.state) =
  Json.Obj
    [
      ("iteration", Json.Int st.st_iteration);
      ("run_counter", Json.Int st.st_run_counter);
      ("attempt_counter", Json.Int st.st_attempt_counter);
      ("cost", cost_to_json st.st_cost);
      ("obs", Json.List (List.map obs_to_json st.st_obs));
      ("dead", Json.List (List.map (fun k -> Json.String k) st.st_dead));
      ("scaler_mean", f_to_json st.st_scaler_mean);
      ("scaler_std", f_to_json st.st_scaler_std);
      ( "noise_hint",
        match st.st_noise_hint with None -> Json.Null | Some f -> f_to_json f
      );
      ("refs", Json.List (List.map floats_to_json (Array.to_list st.st_refs)));
      ( "observe_log",
        Json.List
          (List.map
             (fun (f, z) -> Json.Obj [ ("f", floats_to_json f); ("z", f_to_json z) ])
             st.st_observe_log) );
      ("rng_model", rng_to_json st.st_rng_model);
      ("rng", rng_to_json st.st_rng);
      ("curve", Json.List (List.map eval_to_json st.st_curve));
    ]

let to_json ~meta dataset state =
  Json.Obj
    [
      ("version", Json.Int version);
      ("bench", Json.String meta.bench);
      ("scale", Json.String meta.scale);
      ("seed", Json.Int meta.seed);
      ( "fault",
        match meta.fault with
        | None -> Json.Null
        | Some (spec, seed) ->
            Json.Obj [ ("spec", Json.String spec); ("seed", Json.Int seed) ] );
      ("dataset", dataset_to_json dataset);
      ("state", state_to_json state);
    ]

let save ~path ~meta dataset state =
  (* Write-then-rename: a checkpoint interrupted mid-write must never
     replace a good one with a torn file. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json ~meta dataset state));
      output_char oc '\n');
  Sys.rename tmp path

(* --- Decoding ----------------------------------------------------------- *)

let ( let* ) = Result.bind

let require what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "checkpoint: missing or bad %s" what)

let field j key = Json.member key j

let int_field j key what =
  require what (Option.bind (field j key) Json.to_int_opt)

let str_field j key what =
  require what (Option.bind (field j key) Json.to_string_opt)

let bool_field j key what =
  require what (Option.bind (field j key) Json.to_bool_opt)

let i64_of_json what = function
  | Some (Json.String s) -> (
      match Int64.of_string_opt ("0x" ^ s) with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "checkpoint: bad hex in %s" what))
  | _ -> Error (Printf.sprintf "checkpoint: missing or bad %s" what)

let f_of_json what j =
  let* bits = i64_of_json what j in
  Ok (Int64.float_of_bits bits)

let f_field j key what = f_of_json what (field j key)

let list_field j key what =
  match field j key with
  | Some (Json.List l) -> Ok l
  | _ -> Error (Printf.sprintf "checkpoint: missing or bad %s" what)

let map_m f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
        let* v = f x in
        go (v :: acc) rest
  in
  go [] l

let floats_of_json what j =
  match j with
  | Json.List l ->
      let* vals = map_m (fun v -> f_of_json what (Some v)) l in
      Ok (Array.of_list vals)
  | _ -> Error (Printf.sprintf "checkpoint: bad %s" what)

let config_of_json what j =
  match j with
  | Json.List l -> (
      let vals = List.filter_map Json.to_int_opt l in
      if List.length vals = List.length l then Ok (Array.of_list vals)
      else Error (Printf.sprintf "checkpoint: bad %s" what))
  | _ -> Error (Printf.sprintf "checkpoint: bad %s" what)

let str_of_json what = function
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "checkpoint: bad %s" what)

let rng_of_json what j =
  match j with
  | Some (Json.Obj _ as o) ->
      let* s0 = i64_of_json (what ^ ".s0") (field o "s0") in
      let* s1 = i64_of_json (what ^ ".s1") (field o "s1") in
      let* s2 = i64_of_json (what ^ ".s2") (field o "s2") in
      let* s3 = i64_of_json (what ^ ".s3") (field o "s3") in
      let* spare = f_field o "spare" (what ^ ".spare") in
      let* has_spare = bool_field o "has_spare" (what ^ ".has_spare") in
      Ok { Rng.s0; s1; s2; s3; spare; has_spare }
  | _ -> Error (Printf.sprintf "checkpoint: missing %s" what)

let cost_of_json j =
  match field j "cost" with
  | Some o ->
      let* snap_run_seconds = f_field o "run_s" "cost.run_s" in
      let* snap_compile_seconds = f_field o "compile_s" "cost.compile_s" in
      let* snap_failure_seconds = f_field o "failure_s" "cost.failure_s" in
      let* snap_runs = int_field o "runs" "cost.runs" in
      let* snap_failures = int_field o "failures" "cost.failures" in
      let* compiled = list_field o "compiled" "cost.compiled" in
      let* snap_compiled = map_m (str_of_json "cost.compiled") compiled in
      Ok
        {
          Cost.snap_run_seconds;
          snap_compile_seconds;
          snap_failure_seconds;
          snap_runs;
          snap_failures;
          snap_compiled;
        }
  | None -> Error "checkpoint: missing cost"

let obs_of_json j =
  let* obs_key = str_field j "key" "obs.key" in
  let* obs_n = int_field j "n" "obs.n" in
  let* obs_sum = f_field j "sum" "obs.sum" in
  let* config = require "obs.config" (field j "config") in
  let* obs_config = config_of_json "obs.config" config in
  Ok { Learner.obs_key; obs_n; obs_sum; obs_config }

let eval_of_json j =
  let* iteration = int_field j "iteration" "curve.iteration" in
  let* examples = int_field j "examples" "curve.examples" in
  let* observations = int_field j "observations" "curve.observations" in
  let* cost_seconds = f_field j "cost_s" "curve.cost_s" in
  let* rmse = f_field j "rmse" "curve.rmse" in
  Ok { Learner.iteration; examples; observations; cost_seconds; rmse }

let dataset_of_json j =
  match field j "dataset" with
  | Some o ->
      let* train = list_field o "train" "dataset.train" in
      let* train_configs = map_m (config_of_json "dataset.train") train in
      let* test = list_field o "test" "dataset.test" in
      let* test_configs = map_m (config_of_json "dataset.test") test in
      let* means = require "dataset.test_means" (field o "test_means") in
      let* test_means = floats_of_json "dataset.test_means" means in
      Ok
        {
          Dataset.train_configs = Array.of_list train_configs;
          test_configs = Array.of_list test_configs;
          test_means;
        }
  | None -> Error "checkpoint: missing dataset"

let state_of_json j =
  match field j "state" with
  | Some o ->
      let* st_iteration = int_field o "iteration" "state.iteration" in
      let* st_run_counter = int_field o "run_counter" "state.run_counter" in
      let* st_attempt_counter =
        int_field o "attempt_counter" "state.attempt_counter"
      in
      let* st_cost = cost_of_json o in
      let* obs = list_field o "obs" "state.obs" in
      let* st_obs = map_m obs_of_json obs in
      let* dead = list_field o "dead" "state.dead" in
      let* st_dead = map_m (str_of_json "state.dead") dead in
      let* st_scaler_mean = f_field o "scaler_mean" "state.scaler_mean" in
      let* st_scaler_std = f_field o "scaler_std" "state.scaler_std" in
      let* st_noise_hint =
        match field o "noise_hint" with
        | None | Some Json.Null -> Ok None
        | Some v ->
            let* f = f_of_json "state.noise_hint" (Some v) in
            Ok (Some f)
      in
      let* refs = list_field o "refs" "state.refs" in
      let* refs = map_m (floats_of_json "state.refs") refs in
      let* log = list_field o "observe_log" "state.observe_log" in
      let* st_observe_log =
        map_m
          (fun entry ->
            let* f = require "observe_log.f" (field entry "f") in
            let* f = floats_of_json "observe_log.f" f in
            let* z = f_field entry "z" "observe_log.z" in
            Ok (f, z))
          log
      in
      let* st_rng_model = rng_of_json "state.rng_model" (field o "rng_model") in
      let* st_rng = rng_of_json "state.rng" (field o "rng") in
      let* curve = list_field o "curve" "state.curve" in
      let* st_curve = map_m eval_of_json curve in
      Ok
        {
          Learner.st_iteration;
          st_run_counter;
          st_attempt_counter;
          st_cost;
          st_obs;
          st_dead;
          st_scaler_mean;
          st_scaler_std;
          st_noise_hint;
          st_refs = Array.of_list refs;
          st_observe_log;
          st_rng_model;
          st_rng;
          st_curve;
        }
  | None -> Error "checkpoint: missing state"

let of_json j =
  let* v = int_field j "version" "version" in
  if v <> version then
    Error
      (Printf.sprintf "checkpoint: version %d not supported (expected %d)" v
         version)
  else
    let* bench = str_field j "bench" "bench" in
    let* scale = str_field j "scale" "scale" in
    let* seed = int_field j "seed" "seed" in
    let* fault =
      match field j "fault" with
      | None | Some Json.Null -> Ok None
      | Some o ->
          let* spec = str_field o "spec" "fault.spec" in
          let* fseed = int_field o "seed" "fault.seed" in
          Ok (Some (spec, fseed))
    in
    let* dataset = dataset_of_json j in
    let* state = state_of_json j in
    Ok ({ bench; scale; seed; fault }, dataset, state)

let load path =
  try
    let ic = open_in path in
    let content =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let* j = Json.of_string (String.trim content) in
    of_json j
  with Sys_error e -> Error e
