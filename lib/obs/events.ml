type tree_stats = {
  mean_leaves : float;
  max_depth : int;
  depth_histogram : int array;
  split_frequencies : float array;
}

type start = {
  plan : string;
  strategy : string;
  model : string;
  dim : int;
  pool : int;
  n_max : int;
}

type select = {
  iteration : int;
  config : string;
  score : float;
  revisit : bool;
  config_obs : int;
  examples : int;
  observations : int;
  cost_s : float;
}

type eval = {
  iteration : int;
  examples : int;
  observations : int;
  cost_s : float;
  rmse : float;
  ref_variance : float;
  tree : tree_stats option;
}

type finish = {
  iterations : int;
  examples : int;
  observations : int;
  cost_s : float;
  rmse : float;
}

type fault = {
  config : string;
  attempt : int;
  fault : string;
  lost_s : float;
}

type kind =
  | Start of start
  | Select of select
  | Eval of eval
  | Finish of finish
  | Fault of fault

type t = { run : string; seq : int; kind : kind }

(* --- JSON encoding ----------------------------------------------------- *)

let tree_to_json (s : tree_stats) =
  Json.Obj
    [
      ("mean_leaves", Json.Float s.mean_leaves);
      ("max_depth", Json.Int s.max_depth);
      ( "depth_hist",
        Json.List
          (Array.to_list (Array.map (fun c -> Json.Int c) s.depth_histogram))
      );
      ( "split_freq",
        Json.List
          (Array.to_list
             (Array.map (fun f -> Json.Float f) s.split_frequencies)) );
    ]

let to_json { run; seq; kind } =
  let common kind_name =
    [
      ("ev", Json.String "learner");
      ("run", Json.String run);
      ("seq", Json.Int seq);
      ("kind", Json.String kind_name);
    ]
  in
  match kind with
  | Start s ->
      Json.Obj
        (common "start"
        @ [
            ("plan", Json.String s.plan);
            ("strategy", Json.String s.strategy);
            ("model", Json.String s.model);
            ("dim", Json.Int s.dim);
            ("pool", Json.Int s.pool);
            ("n_max", Json.Int s.n_max);
          ])
  | Select s ->
      Json.Obj
        (common "select"
        @ [
            ("iteration", Json.Int s.iteration);
            ("config", Json.String s.config);
            ("score", Json.Float s.score);
            ("revisit", Json.Bool s.revisit);
            ("config_obs", Json.Int s.config_obs);
            ("examples", Json.Int s.examples);
            ("observations", Json.Int s.observations);
            ("cost_s", Json.Float s.cost_s);
          ])
  | Eval e ->
      Json.Obj
        (common "eval"
        @ [
            ("iteration", Json.Int e.iteration);
            ("examples", Json.Int e.examples);
            ("observations", Json.Int e.observations);
            ("cost_s", Json.Float e.cost_s);
            ("rmse", Json.Float e.rmse);
            ("ref_variance", Json.Float e.ref_variance);
          ]
        @ match e.tree with None -> [] | Some s -> [ ("tree", tree_to_json s) ])
  | Finish f ->
      Json.Obj
        (common "finish"
        @ [
            ("iterations", Json.Int f.iterations);
            ("examples", Json.Int f.examples);
            ("observations", Json.Int f.observations);
            ("cost_s", Json.Float f.cost_s);
            ("rmse", Json.Float f.rmse);
          ])
  | Fault f ->
      Json.Obj
        (common "fault"
        @ [
            ("config", Json.String f.config);
            ("attempt", Json.Int f.attempt);
            ("fault", Json.String f.fault);
            ("lost_s", Json.Float f.lost_s);
          ])

(* --- JSON decoding ----------------------------------------------------- *)

let ( let* ) = Result.bind

let tree_of_json j =
  let* mean_leaves = Json.req "mean_leaves" Json.number j in
  let* max_depth = Json.req "max_depth" Json.int j in
  let* depth_histogram = Json.list "depth_hist" (Json.item Json.int) j in
  let* split_frequencies = Json.list "split_freq" (Json.item Json.number) j in
  Ok
    {
      mean_leaves;
      max_depth;
      depth_histogram = Array.of_list depth_histogram;
      split_frequencies = Array.of_list split_frequencies;
    }

let decode j =
  let* run = Json.req "run" Json.string j in
  let* seq = Json.req "seq" Json.int j in
  let* kind_name = Json.req "kind" Json.string j in
  let* kind =
    match kind_name with
    | "start" ->
        let* plan = Json.req "plan" Json.string j in
        let* strategy = Json.req "strategy" Json.string j in
        let* model = Json.req "model" Json.string j in
        let* dim = Json.req "dim" Json.int j in
        let* pool = Json.req "pool" Json.int j in
        let* n_max = Json.req "n_max" Json.int j in
        Ok (Start { plan; strategy; model; dim; pool; n_max })
    | "select" ->
        let* iteration = Json.req "iteration" Json.int j in
        let* config = Json.req "config" Json.string j in
        let* score = Json.req "score" Json.number j in
        let* revisit = Json.req "revisit" Json.bool j in
        let* config_obs = Json.req "config_obs" Json.int j in
        let* examples = Json.req "examples" Json.int j in
        let* observations = Json.req "observations" Json.int j in
        let* cost_s = Json.req "cost_s" Json.number j in
        Ok
          (Select
             {
               iteration;
               config;
               score;
               revisit;
               config_obs;
               examples;
               observations;
               cost_s;
             })
    | "eval" ->
        let* iteration = Json.req "iteration" Json.int j in
        let* examples = Json.req "examples" Json.int j in
        let* observations = Json.req "observations" Json.int j in
        let* cost_s = Json.req "cost_s" Json.number j in
        let* rmse = Json.req "rmse" Json.number j in
        let* ref_variance = Json.req "ref_variance" Json.number j in
        let* tree = Json.opt_obj "tree" tree_of_json j in
        Ok
          (Eval
             { iteration; examples; observations; cost_s; rmse; ref_variance;
               tree })
    | "finish" ->
        let* iterations = Json.req "iterations" Json.int j in
        let* examples = Json.req "examples" Json.int j in
        let* observations = Json.req "observations" Json.int j in
        let* cost_s = Json.req "cost_s" Json.number j in
        let* rmse = Json.req "rmse" Json.number j in
        Ok (Finish { iterations; examples; observations; cost_s; rmse })
    | "fault" ->
        let* config = Json.req "config" Json.string j in
        let* attempt = Json.req "attempt" Json.int j in
        let* fault = Json.req "fault" Json.string j in
        let* lost_s = Json.req "lost_s" Json.number j in
        Ok (Fault { config; attempt; fault; lost_s })
    | other -> Error (Printf.sprintf "unknown kind %S" other)
  in
  Ok { run; seq; kind }

let of_json j = Result.map_error (( ^ ) "learner event: ") (decode j)

(* --- Emission ----------------------------------------------------------- *)

(* A sink buffers (run, seq, line) triples and writes them sorted when
   its scope ends, so the file's bytes depend only on what each learner
   run emitted — not on how the pool interleaved runs across domains.  A
   run's events are totally ordered by its per-run sequence number;
   distinct runs are ordered by key; the line itself is the final
   tiebreak, making the sort a total order and the output byte-identical
   at any job count. *)
type sink = { lock : Mutex.t; mutable buf : (string * int * string) list }
type stream = { sink : sink; key : string; mutable seq : int }

let stream sink key = { sink; key; seq = 0 }

let emit s kind =
  let seq = s.seq in
  s.seq <- seq + 1;
  let line = Json.to_string (to_json { run = s.key; seq; kind }) in
  Mutex.protect s.sink.lock (fun () ->
      s.sink.buf <- (s.key, seq, line) :: s.sink.buf)

let compare_entries (r1, s1, l1) (r2, s2, l2) =
  match String.compare r1 r2 with
  | 0 -> ( match compare (s1 : int) s2 with 0 -> String.compare l1 l2 | c -> c)
  | c -> c

(* Run [f] on a fresh sink, then hand [write] its lines in order. *)
let with_sink write f =
  let sink = { lock = Mutex.create (); buf = [] } in
  Fun.protect
    ~finally:(fun () ->
      let buf = Mutex.protect sink.lock (fun () -> sink.buf) in
      List.iter
        (fun (_, _, line) -> write line)
        (List.sort compare_entries buf))
    (fun () -> f sink)

let with_file path ?manifest f =
  let oc = open_out path in
  let write line =
    output_string oc line;
    output_char oc '\n'
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (* The manifest heads the file unsorted: it is provenance, not an
         event. *)
      Option.iter (fun m -> write (Json.to_string m)) manifest;
      with_sink write f)

let with_memory f =
  let lines = ref [] in
  let v = with_sink (fun l -> lines := l :: !lines) f in
  (v, List.rev !lines)

(* --- Loading ------------------------------------------------------------ *)

type file = { manifest : Manifest.t option; events : t list }

let of_lines lines =
  let rec go manifest events = function
    | [] -> Ok { manifest; events = List.rev events }
    | line :: rest -> (
        if String.trim line = "" then go manifest events rest
        else
          match Json.of_string line with
          | Error e -> Error (Printf.sprintf "bad line %S: %s" line e)
          | Ok j -> (
              match Option.bind (Json.member "ev" j) Json.to_string_opt with
              | Some "learner" -> (
                  match of_json j with
                  | Ok ev -> go manifest (ev :: events) rest
                  | Error e -> Error e)
              | Some "manifest" -> (
                  match Manifest.of_json j with
                  | Ok m -> go (Some m) events rest
                  | Error e -> Error e)
              (* Other event kinds (spans, future additions) are not ours. *)
              | Some _ -> go manifest events rest
              | None -> Error (Printf.sprintf "line without ev tag: %S" line)))
  in
  go None [] lines
