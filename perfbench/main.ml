(* perfbench: the repository benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1

   runs workload W (tune, paper-model, table1 or serve; see README.md) for
   about S seconds of work and prints, as the last line of stdout, one
   JSON object {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
   --trace 1 they are the per-layer ones.

   Rounds run in child processes (this executable with --round R
   --rounds K): a fresh one per round for the batch workloads, one for
   all of serve's episodes.  Every round starts from the same cache
   state, and a round that crashes or hangs past its deadline is killed
   and counted as failed instead of taking the run down.

     perfbench --write-expected --seconds S

   regenerates perfbench/expected.txt, the digests of every round's
   simulated results at the default seed. *)

module W = Workloads
module Json = Altune_obs.Json
open Util

let default_seed = 42
let expected_path = Filename.concat "perfbench" "expected.txt"
let out_dir = Filename.concat "perfbench" "out"

let usage () =
  prerr_endline
    "usage: perfbench --workload tune|paper-model|table1|serve --seed N \
     --seconds S --trace 0|1\n\
    \       perfbench --write-expected [--seconds S]";
  exit 2

type args = {
  workload : W.name option;
  seed : int;
  seconds : float;
  trace : bool;
  round : int option;
  count : int;
  write_expected : bool;
}

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> (
        match W.of_string w with
        | Some w -> go { a with workload = Some w } rest
        | None -> usage ())
    | "--seed" :: n :: rest -> go { a with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { a with seconds = float_of_string s } rest
    | "--trace" :: t :: rest -> go { a with trace = t = "1" } rest
    | "--round" :: r :: rest -> go { a with round = Some (int_of_string r) } rest
    | "--rounds" :: k :: rest -> go { a with count = int_of_string k } rest
    | "--write-expected" :: rest -> go { a with write_expected = true } rest
    | _ -> usage ()
  in
  try
    go
      {
        workload = None;
        seed = default_seed;
        seconds = 20.0;
        trace = false;
        round = None;
        count = 1;
        write_expected = false;
      }
      (List.tl (Array.to_list argv))
  with Failure _ -> usage ()

(* --- Rounds as child processes ------------------------------------------ *)

type round_out = {
  lines : Json.t list;  (* op and digest lines, in order *)
  records : Json.t list;  (* round lines, one per finished round *)
  death : string option;  (* why the child ended before its last round *)
}

let rec select_read fd timeout =
  try Unix.select [ fd ] [] [] timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_read fd timeout

(* Spawn a child for rounds [first, first + count) and collect its JSON
   lines until it exits or a round outlives its deadline; a late child is
   killed.  Either way it is reaped before returning. *)
let spawn w ~seed ~first ~count ~trace =
  let exe = Sys.executable_name in
  let argv =
    [|
      exe; "--workload"; W.to_string w; "--seed"; string_of_int seed;
      "--round"; string_of_int first; "--rounds"; string_of_int count;
      "--trace"; (if trace then "1" else "0");
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let pending = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let parsed = ref [] and rounds = ref 0 in
  let take line =
    match Json.of_string line with
    | Ok j ->
        if get_string "kind" j = "round" then incr rounds;
        parsed := j :: !parsed
    | Error _ -> ()
  in
  let rec pump deadline =
    let left = deadline -. now () in
    if left <= 0.0 then `Late
    else
      match select_read rd left with
      | [], _, _ -> `Late
      | _ ->
          let n = Unix.read rd chunk 0 (Bytes.length chunk) in
          if n = 0 then `Eof
          else begin
            Buffer.add_subbytes pending chunk 0 n;
            let text = Buffer.contents pending in
            let parts = String.split_on_char '\n' text in
            let rec feed = function
              | [ last ] ->
                  Buffer.clear pending;
                  Buffer.add_string pending last
              | l :: rest ->
                  take l;
                  feed rest
              | [] -> ()
            in
            let before = !rounds in
            feed parts;
            (* Each finished round restarts the deadline clock. *)
            pump (if !rounds > before then now () +. W.deadline_s w else deadline)
          end
  in
  let ended = pump (now () +. W.deadline_s w) in
  if ended = `Late then Unix.kill pid Sys.sigkill;
  let _, status = Unix.waitpid [] pid in
  Unix.close rd;
  let parsed = List.rev !parsed in
  let death =
    match (ended, status) with
    | `Late, _ ->
        Some (Printf.sprintf "deadline of %.0f s exceeded" (W.deadline_s w))
    | _, Unix.WEXITED 0 when !rounds = count -> None
    | _, Unix.WEXITED c -> Some (Printf.sprintf "round exited with code %d" c)
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Some (Printf.sprintf "round killed by signal %d" s)
  in
  {
    lines = List.filter (fun j -> get_string "kind" j <> "round") parsed;
    records = List.filter (fun j -> get_string "kind" j = "round") parsed;
    death;
  }

(* All of a run's rounds, in as many child processes as the workload
   takes; after a child dies mid-run the next round starts a new one. *)
let run_rounds w ~seed ~rounds ~trace =
  let rec go first acc =
    if first >= rounds then List.rev acc
    else begin
      let count = min (rounds - first) (W.rounds_per_process w) in
      let ro = spawn w ~seed ~first ~count ~trace in
      let next = first + List.length ro.records + if ro.death = None then 0 else 1 in
      go next ((first, ro) :: acc)
    end
  in
  go 0 []

(* --- Expected digests ---------------------------------------------------- *)

let load_expected () =
  if not (Sys.file_exists expected_path) then Hashtbl.create 1
  else begin
    let ic = open_in expected_path in
    let t = Hashtbl.create 512 in
    (try
       while true do
         match String.split_on_char ' ' (input_line ic) with
         | [ name; d ] -> Hashtbl.replace t name d
         | _ -> ()
       done
     with End_of_file -> close_in ic);
    t
  end

let rounds_for w seconds =
  max 2 (int_of_float (Float.round (seconds /. W.nominal_round_s w)))

(* --- Accounting ------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  mutable errors : string list;  (* distinct messages, newest first *)
  mutable failed_steps : int;  (* failed serve step/tick requests *)
}

let fail t msg =
  t.failed <- t.failed + 1;
  if not (List.mem msg t.errors) then t.errors <- msg :: t.errors

let account t ~expected (ro : round_out) =
  List.iter
    (fun j ->
      let name = get_string "name" j in
      t.attempted <- t.attempted + 1;
      let d = get_string "digest" j in
      if get_string "kind" j = "op" && not (get_bool "ok" j) then begin
        fail t (name ^ ": " ^ get_string "error" j);
        if contains "/tick" name || contains "/step" name then
          t.failed_steps <- t.failed_steps + 1
      end
      else
        match Hashtbl.find_opt expected name with
        | Some e when d <> "" && e <> d ->
            t.correct <- false;
            fail t (name ^ ": output digest differs from expected")
        | _ -> ())
    ro.lines;
  Option.iter
    (fun msg ->
      t.attempted <- t.attempted + 1;
      fail t msg)
    ro.death;
  List.iter
    (fun r ->
      List.iter
        (fun p ->
          let msg = Option.value ~default:"" (Json.to_string_opt p) in
          t.attempted <- t.attempted + 1;
          t.correct <- false;
          fail t msg)
        (get_list "problems" r))
    ro.records

(* --- Metrics ----------------------------------------------------------------- *)

let metric name unit v = (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ])

(* Laplace's rule of succession: an estimate of the per-operation failure
   probability that is never exactly 0 (or 1), so a ratio against a
   parent's value stays defined. *)
let fail_rate t = float_of_int (t.failed + 1) /. float_of_int (t.attempted + 2)

let end_to_end w t records =
  let all f = List.concat_map f records in
  let complete = List.filter (fun r -> get_float "wall" r > 0.0) records in
  let rates =
    List.filter_map
      (fun r ->
        let s = get_float "learner_s" r and n = get_int "iterations" r in
        if s > 0.0 && n > 0 then Some (float_of_int n /. s) else None)
      records
  in
  let sessions = all (get_floats "sessions") in
  let steps =
    all (get_floats "steps_ms")
    @ List.init t.failed_steps (fun _ -> 1000.0 *. W.deadline_s w)
  in
  let q p xs = if xs = [] then 0.0 else quantile p xs in
  ( [
      metric "setup_s" "s" (median (all (get_floats "setup")));
      metric "wall_s" "s" (median (List.map (get_float "wall") complete));
      metric "iters_per_s" "1/s" (if rates = [] then 0.0 else median rates);
      metric "session_p50_s" "s" (q 0.5 sessions);
      metric "session_p90_s" "s" (q 0.9 sessions);
      metric "step_p50_ms" "ms" (q 0.5 steps);
      metric "step_p90_ms" "ms" (q 0.9 steps);
      metric "peak_heap_mb" "MB" (median (List.map (get_float "heap_mb") records));
      metric "fail_rate" "share" (fail_rate t);
    ],
    Printf.sprintf
      "%d rounds (%d complete); %d sessions (%d above p90); %d steps (%d above \
       p90); %d configurations audited"
      (List.length records) (List.length complete) (List.length sessions)
      (beyond 0.9 sessions) (List.length steps) (beyond 0.9 steps)
      (sum (List.map (fun r -> float_of_int (get_int "audits" r)) records)
      |> int_of_float) )

(* A traced round's additive quantity [k] (see [Workloads.add_layers]). *)
let layer_value k r =
  Option.value ~default:0.0
    (Option.bind (List.assoc_opt k (get_obj "layers" r)) Json.to_float_opt)

let per_layer w ~traced ~untraced =
  let total k = sum (List.map (layer_value k) traced) in
  let n = float_of_int (max 1 (List.length traced)) in
  let avg k = total k /. n in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let wrapped = W.jobs w = 1 in
  let iterations =
    if wrapped then avg "count.learner.iterations"
    else sum (List.map (fun r -> float_of_int (get_int "iterations" r)) traced) /. n
  in
  let hits = total "ctr.spapt.cache.hits" and misses = total "ctr.spapt.cache.misses" in
  let reused = total "fork.steps_reused" and applied = total "fork.steps_applied" in
  let untraced_med k = median (List.map (get_float k) untraced) in
  let traced_wall = median (List.map (layer_value "traced_wall_s") traced) in
  let memo name =
    List.concat_map
      (fun kind ->
        let src =
          if name = "serve" then Printf.sprintf "ctr.serve.memo.%s" kind
          else Printf.sprintf "ctr.memo.%s.%s" name kind
        in
        [ metric (Printf.sprintf "memo.%s.%s" name kind) "count" (avg src) ])
      [ "hits"; "misses"; "waits" ]
  in
  [
    metric "learner.self_s" "s" (avg "self.learner");
    metric "learner.iterations" "count" iterations;
    metric "learner.candidates" "count"
      (avg (if wrapped then "count.learner.candidates" else "ctr.surrogate.alc.scores"));
    metric "dataset.s" "s" (avg "self.dataset");
    metric "dataset.configs" "count" (avg "count.dataset.configs");
    metric "search.s" "s" (avg "self.search");
    metric "search.queries" "count" (avg "count.search.queries");
    metric "spapt.eval_s" "s" (avg "self.spapt.eval");
    metric "spapt.measure_s" "s" (avg "self.spapt.measure");
    metric "spapt.cache_hits" "count" (hits /. n);
    metric "spapt.cache_misses" "count" (misses /. n);
    metric "spapt.cache_hit_rate" "share" (ratio hits (hits +. misses));
    metric "spapt.cache_evictions" "count" (avg "ctr.spapt.cache.evictions");
    metric "spapt.ms_per_miss" "ms" (1000.0 *. ratio (total "self.spapt.eval") misses);
    metric "fork.resolve_s" "s" (avg "replay.resolve_s");
    metric "fork.reuse_rate" "share" (ratio reused (reused +. applied));
    metric "fork.nodes" "count" (avg "fork.nodes");
    metric "analysis.analyze_s" "s" (avg "replay.analyze_s");
    metric "machine.price_s" "s" (avg "replay.price_s");
    metric "noise.sample_s" "s" (avg "replay.noise_s");
    metric "dynatree.observe_s" "s" (avg "self.dynatree.observe");
    metric "dynatree.observes" "count" (avg "ctr.surrogate.observes");
    metric "dynatree.alc_s" "s" (avg "self.dynatree.alc");
    metric "dynatree.alc_scores" "count" (avg "ctr.surrogate.alc.scores");
    metric "dynatree.predict_s" "s" (avg "self.dynatree.predict");
    metric "dynatree.predicts" "count" (avg "count.dynatree.predicts");
    metric "dynatree.resamples" "count" (avg "ctr.surrogate.resamples");
    metric "pool.tasks" "count" (avg "ctr.pool.tasks");
    metric "pool.steals" "count" (avg "ctr.pool.steals");
    metric "pool.queue_wait_s" "s" (avg "hist.pool.queue_wait_seconds");
    metric "pool.task_s" "s" (avg "hist.pool.task_seconds");
    metric "pool.busy_share" "share"
      (ratio (total "busy_s") (total "span_wall_s" *. float_of_int (W.jobs w)));
  ]
  @ memo "dataset" @ memo "curves" @ memo "serve"
  @ [
      metric "runs.dataset_s" "s" (avg "incl.runs.dataset");
      metric "runs.curves_s" "s" (avg "incl.runs.curves");
      metric "serve.open_ms" "ms" (1000.0 *. ratio (total "serve.open_s") (total "serve.opens"));
      metric "serve.step_ms" "ms" (1000.0 *. ratio (total "serve.step_s") (total "serve.steps"));
      metric "serve.codec_ms" "ms" (1000.0 *. ratio (total "serve.codec_s") (total "serve.requests"));
      metric "serve.memo_hit_rate" "share" (ratio (total "serve.memo_hits") (total "serve.memo_lookups"));
      metric "serve.memo_cross_hit_rate" "share"
        (ratio (total "serve.memo_cross_hits") (total "serve.memo_lookups"));
      metric "serve.memo_entries" "count" (avg "serve.memo_entries");
      metric "serve.queue_max" "count" (avg "serve.queue_max");
      metric "gc.minor_mb" "MB" (untraced_med "minor_mb");
      metric "gc.major_collections" "count" (untraced_med "major_collections");
      metric "gc.top_heap_mb" "MB" (untraced_med "heap_mb");
      metric "trace.overhead" "share" (ratio traced_wall (untraced_med "wall") -. 1.0);
      metric "trace.unattributed_share" "share" (ratio (total "self.bench") (total "busy_s"));
    ]

(* A human-readable layer breakdown of the traced rounds, on stderr, with
   the verdict on the layers predicted to dominate. *)
let report_layers w traced =
  let total k = sum (List.map (layer_value k) traced) in
  let busy = total "busy_s" in
  if busy > 0.0 then begin
    let share k = 100.0 *. total ("self." ^ k) /. busy in
    Printf.eprintf "layer self time over %d traced round(s), %.2f s busy:\n"
      (List.length traced) busy;
    List.iter
      (fun l -> Printf.eprintf "  %-18s %6.1f%%\n" l (share l))
      Layers.layers;
    let check label layers =
      let s = List.fold_left (fun a l -> a +. share l) 0.0 layers in
      Printf.eprintf "prediction: %s = %.1f%% of attributed time: %s\n" label s
        (if s > 50.0 then "held" else "did not hold")
    in
    match w with
    | W.Tune -> check "spapt.eval + dataset" [ "spapt.eval"; "dataset" ]
    | W.Paper_model ->
        check "dynatree.*" [ "dynatree.observe"; "dynatree.alc"; "dynatree.predict" ]
    | W.Table1 | W.Serve -> ()
  end

(* --- Running a workload ---------------------------------------------------- *)

let run w ~seed ~seconds ~trace =
  let expected = if seed = default_seed then load_expected () else Hashtbl.create 1 in
  let t = { attempted = 0; failed = 0; correct = true; errors = []; failed_steps = 0 } in
  let rounds = rounds_for w seconds in
  if trace && not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  (* A traced run alternates untraced and traced rounds, so the tracing
     overhead is measured on the same run. *)
  let records =
    List.concat_map
      (fun (first, ro) ->
        account t ~expected ro;
        List.mapi (fun i r -> ((first + i) mod 2 = 1 && trace, r)) ro.records)
      (run_rounds w ~seed ~rounds ~trace)
  in
  List.iter (fun e -> Printf.eprintf "failure: %s\n" e) (List.rev t.errors);
  let metrics =
    if trace then begin
      let traced = List.filter_map (fun (tr, r) -> if tr then Some r else None) records in
      let untraced = List.filter_map (fun (tr, r) -> if tr then None else Some r) records in
      report_layers w traced;
      per_layer w ~traced ~untraced
    end
    else begin
      let m, note = end_to_end w t (List.map snd records) in
      Printf.eprintf "%s: %s\n" (W.to_string w) note;
      m
    end
  in
  (* A metric no round could measure (every round failed) has no value:
     report no result rather than a made-up one. *)
  List.iter
    (fun (name, m) ->
      if not (Float.is_finite (get_float "value" m)) then begin
        Printf.eprintf "%s: no round measured %s\n" (W.to_string w) name;
        exit 1
      end)
    metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool t.correct);
            ("attempted", Json.Int t.attempted);
            ("failed", Json.Int t.failed);
            ("metrics", Json.Obj metrics);
          ]))

(* Digests of every round at the default seed.  A round that fails is
   retried, so the file covers every round index a run can make. *)
let write_expected ~seconds =
  let entries =
    List.concat_map
      (fun w ->
        List.concat
          (List.init
             (rounds_for w (1.5 *. seconds))
             (fun round ->
               let rec attempt k =
                 let ro =
                   spawn w ~seed:default_seed ~first:round ~count:1 ~trace:false
                 in
                 let digests =
                   List.filter_map
                     (fun j ->
                       match get_string "digest" j with
                       | "" -> None
                       | d -> Some (get_string "name" j ^ " " ^ d))
                     ro.lines
                 in
                 let failed =
                   ro.death <> None
                   || List.exists
                        (fun j -> get_string "kind" j = "op" && not (get_bool "ok" j))
                        ro.lines
                 in
                 if failed && k < 20 then attempt (k + 1)
                 else if failed then failwith "write-expected: a round kept failing"
                 else digests
               in
               attempt 1)))
      W.all
  in
  let oc = open_out expected_path in
  List.iter (fun l -> output_string oc (l ^ "\n")) entries;
  close_out oc;
  Printf.printf "wrote %d digests to %s\n" (List.length entries) expected_path

let () =
  let a = parse Sys.argv in
  match (a.round, a.workload) with
  | Some first, Some w ->
      if a.trace then
        W.trace_path :=
          Some (Filename.concat out_dir (W.to_string w ^ ".trace.jsonl"));
      W.run_rounds w ~seed:a.seed ~first ~count:a.count ~trace:a.trace
  | Some _, None -> usage ()
  | None, _ when a.write_expected -> write_expected ~seconds:a.seconds
  | None, Some w -> run w ~seed:a.seed ~seconds:a.seconds ~trace:a.trace
  | None, None -> usage ()
