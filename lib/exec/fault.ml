module Rng = Altune_prng.Rng

type spec = {
  crash : float;
  timeout : float;
  timeout_lost : float;
  corrupt : float;
  max_retries : int;
  backoff : float;
}

let default =
  {
    crash = 0.0;
    timeout = 0.0;
    timeout_lost = 10.0;
    corrupt = 0.0;
    max_retries = 3;
    backoff = 1.0;
  }

let of_string s =
  let ( let* ) = Result.bind in
  let parse_float key v =
    match float_of_string_opt v with
    | Some f when Float.is_finite f -> Result.Ok f
    | _ -> Error (Printf.sprintf "fault spec: %s: not a number: %S" key v)
  in
  let parse_prob key v =
    let* f = parse_float key v in
    if f < 0.0 || f > 1.0 then
      Error (Printf.sprintf "fault spec: %s: probability out of [0,1]: %s" key v)
    else Result.Ok f
  in
  let parse_pos key v =
    let* f = parse_float key v in
    if f < 0.0 then
      Error (Printf.sprintf "fault spec: %s: must be non-negative: %s" key v)
    else Result.Ok f
  in
  let fields =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun f -> f <> "")
  in
  let step acc field =
    let* spec = acc in
    match String.index_opt field '=' with
    | None -> Error (Printf.sprintf "fault spec: expected key=value, got %S" field)
    | Some i -> (
        let key = String.sub field 0 i in
        let v = String.sub field (i + 1) (String.length field - i - 1) in
        match key with
        | "crash" ->
            let* p = parse_prob key v in
            Result.Ok { spec with crash = p }
        | "timeout" ->
            let* p = parse_prob key v in
            Result.Ok { spec with timeout = p }
        | "timeout_lost" ->
            let* f = parse_pos key v in
            Result.Ok { spec with timeout_lost = f }
        | "corrupt" ->
            let* p = parse_prob key v in
            Result.Ok { spec with corrupt = p }
        | "max_retries" -> (
            match int_of_string_opt v with
            | Some n when n >= 0 -> Result.Ok { spec with max_retries = n }
            | _ ->
                Error
                  (Printf.sprintf
                     "fault spec: max_retries: not a non-negative integer: %S" v))
        | "backoff" ->
            let* f = parse_pos key v in
            Result.Ok { spec with backoff = f }
        | _ -> Error (Printf.sprintf "fault spec: unknown key %S" key))
  in
  let* spec = List.fold_left step (Result.Ok default) fields in
  if spec.crash +. spec.timeout +. spec.corrupt > 1.0 then
    Error "fault spec: crash + timeout + corrupt probabilities exceed 1"
  else Result.Ok spec

let to_string spec =
  Printf.sprintf
    "crash=%g,timeout=%g,timeout_lost=%g,corrupt=%g,max_retries=%d,backoff=%g"
    spec.crash spec.timeout spec.timeout_lost spec.corrupt spec.max_retries
    spec.backoff

type t = { t_spec : spec; t_seed : int }

let create spec ~seed = { t_spec = spec; t_seed = seed }
let spec t = t.t_spec

type verdict = Ok | Crash | Timeout of float | Corrupt

let draw t ~key ~attempt =
  let s = t.t_spec in
  if s.crash = 0.0 && s.timeout = 0.0 && s.corrupt = 0.0 then Ok
  else begin
    (* One-shot generator per (key, attempt): the verdict is a pure
       function of (seed, spec, key, attempt), independent of call order
       and of every other stream in the program. *)
    let rng =
      Rng.create ~seed:(Rng.derive ~seed:t.t_seed [ S "fault"; S key; I attempt ])
    in
    let u = Rng.uniform rng in
    if u < s.crash then Crash
    else if u < s.crash +. s.timeout then Timeout s.timeout_lost
    else if u < s.crash +. s.timeout +. s.corrupt then Corrupt
    else Ok
  end

let backoff_seconds spec ~failures =
  if failures <= 0 then 0.0
  else spec.backoff *. Float.of_int (1 lsl min (failures - 1) 30)
