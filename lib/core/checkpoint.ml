module Json = Altune_obs.Json
module Rng = Altune_prng.Rng

let version = 2

type meta = {
  bench : string;
  scale : string;
  seed : int;
  fault : string option;
  n_max : int option;
  budget : float option;
}

(* --- Encoding ----------------------------------------------------------- *)

(* Floats are stored as the hex of their IEEE-754 bits: resume must
   reproduce the uninterrupted run byte-for-byte, so every float has to
   round-trip exactly (decimal shortest-representation would, but the
   JSON layer renders non-finite floats as null; bits are unambiguous). *)
let f_to_json f = Json.String (Printf.sprintf "%016Lx" (Int64.bits_of_float f))
let i64_to_json i = Json.String (Printf.sprintf "%016Lx" i)
let floats_to_json a = Json.List (List.map f_to_json (Array.to_list a))
let opt_to_json f = function None -> Json.Null | Some v -> f v

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
      ("noise_hint", opt_to_json f_to_json st.st_noise_hint);
      ( "observe_log",
        Json.List
          (List.map
             (fun (f, z) -> Json.Obj [ ("f", floats_to_json f); ("z", f_to_json z) ])
             st.st_observe_log) );
      ("rng_model", rng_to_json st.st_rng_model);
      ("rng", rng_to_json st.st_rng);
      ("curve", Json.List (List.map eval_to_json st.st_curve));
    ]

let to_json ~meta state =
  Json.Obj
    [
      ("version", Json.Int version);
      ("bench", Json.String meta.bench);
      ("scale", Json.String meta.scale);
      ("seed", Json.Int meta.seed);
      ( "fault",
        opt_to_json (fun s -> Json.Obj [ ("spec", Json.String s) ]) meta.fault
      );
      ("n_max", opt_to_json (fun n -> Json.Int n) meta.n_max);
      ("budget", opt_to_json f_to_json meta.budget);
      ("state", state_to_json state);
    ]

let tmp_path path = path ^ ".tmp"
let write_error e = Error ("cannot write checkpoint: " ^ e)

let probe path =
  let tmp = tmp_path path in
  try
    close_out (open_out tmp);
    Sys.remove tmp;
    Ok ()
  with Sys_error e -> write_error e

let save ~path ~meta state =
  (* Write-then-rename: a checkpoint interrupted mid-write must never
     replace a good one with a torn file, and a failed write leaves no
     temporary file behind. *)
  let tmp = tmp_path path in
  try
    let oc = open_out tmp in
    (try
       output_string oc (Json.to_string (to_json ~meta state));
       output_char oc '\n';
       close_out oc;
       Sys.rename tmp path
     with Sys_error _ as e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    Ok ()
  with Sys_error e -> write_error e

(* --- Decoding ----------------------------------------------------------- *)

let ( let* ) = Result.bind

let i64_of_json = function
  | Json.String s -> Int64.of_string_opt ("0x" ^ s)
  | _ -> None

let f_of_json j = Option.map Int64.float_of_bits (i64_of_json j)
let hex = { Json.name = "hex"; read = i64_of_json }
let hex_float = { Json.name = "hex-float"; read = f_of_json }

let rng_of_json j =
  let* s0 = Json.req "s0" hex j in
  let* s1 = Json.req "s1" hex j in
  let* s2 = Json.req "s2" hex j in
  let* s3 = Json.req "s3" hex j in
  let* spare = Json.req "spare" hex_float j in
  let* has_spare = Json.req "has_spare" Json.bool j in
  Ok { Rng.s0; s1; s2; s3; spare; has_spare }

let cost_of_json j =
  let* snap_run_seconds = Json.req "run_s" hex_float j in
  let* snap_compile_seconds = Json.req "compile_s" hex_float j in
  let* snap_failure_seconds = Json.req "failure_s" hex_float j in
  let* snap_runs = Json.req "runs" Json.int j in
  let* snap_failures = Json.req "failures" Json.int j in
  let* snap_compiled = Json.list "compiled" (Json.item Json.string) j in
  Ok
    {
      Cost.snap_run_seconds;
      snap_compile_seconds;
      snap_failure_seconds;
      snap_runs;
      snap_failures;
      snap_compiled;
    }

let obs_of_json j =
  let* obs_key = Json.req "key" Json.string j in
  let* obs_n = Json.req "n" Json.int j in
  let* obs_sum = Json.req "sum" hex_float j in
  let* config = Json.list "config" (Json.item Json.int) j in
  Ok { Learner.obs_key; obs_n; obs_sum; obs_config = Array.of_list config }

let observed_of_json j =
  let* f = Json.list "f" (Json.item hex_float) j in
  let* z = Json.req "z" hex_float j in
  Ok (Array.of_list f, z)

let eval_of_json j =
  let* iteration = Json.req "iteration" Json.int j in
  let* examples = Json.req "examples" Json.int j in
  let* observations = Json.req "observations" Json.int j in
  let* cost_seconds = Json.req "cost_s" hex_float j in
  let* rmse = Json.req "rmse" hex_float j in
  Ok { Learner.iteration; examples; observations; cost_seconds; rmse }

let state_of_json j =
  let* st_iteration = Json.req "iteration" Json.int j in
  let* st_run_counter = Json.req "run_counter" Json.int j in
  let* st_attempt_counter = Json.req "attempt_counter" Json.int j in
  let* st_cost = Json.obj "cost" cost_of_json j in
  let* st_obs = Json.list "obs" obs_of_json j in
  let* st_dead = Json.list "dead" (Json.item Json.string) j in
  let* st_scaler_mean = Json.req "scaler_mean" hex_float j in
  let* st_scaler_std = Json.req "scaler_std" hex_float j in
  let* st_noise_hint = Json.opt "noise_hint" hex_float j in
  let* st_observe_log = Json.list "observe_log" observed_of_json j in
  let* st_rng_model = Json.obj "rng_model" rng_of_json j in
  let* st_rng = Json.obj "rng" rng_of_json j in
  let* st_curve = Json.list "curve" eval_of_json j in
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
      st_observe_log;
      st_rng_model;
      st_rng;
      st_curve;
    }

(* Version 1 also stored the dataset, the reference set and the fault
   seed, which are skipped like any key the reader does not read; it has
   no [n_max] or [budget], which read as [None]. *)
let decode j =
  let* v = Json.req "version" Json.int j in
  if v < 1 || v > version then
    Error (Printf.sprintf "version %d not supported (reads 1 to %d)" v version)
  else
    let* bench = Json.req "bench" Json.string j in
    let* scale = Json.req "scale" Json.string j in
    let* seed = Json.req "seed" Json.int j in
    let* fault = Json.opt_obj "fault" (Json.req "spec" Json.string) j in
    let* n_max = Json.opt "n_max" Json.int j in
    let* budget = Json.opt "budget" hex_float j in
    let* state = Json.obj "state" state_of_json j in
    Ok ({ bench; scale; seed; fault; n_max; budget }, state)

let of_json j = Result.map_error (( ^ ) "checkpoint: ") (decode j)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | content ->
      let* j = Json.of_string (String.trim content) in
      of_json j
  | exception Sys_error e -> Error e
