(* Command-line interface to the reproduction: regenerate each table and
   figure of the paper, inspect benchmarks, or autotune one kernel. *)

module Spapt = Altune_spapt.Spapt
module Kernels = Altune_spapt.Kernels
module Pretty = Altune_kernellang.Pretty
module Lint = Altune_kernellang.Lint
module Verify = Altune_kernellang.Verify
module Drivers = Altune_experiments.Drivers
module Scale = Altune_experiments.Scale
module Runs = Altune_experiments.Runs
module Tune_run = Altune_experiments.Tune_run
module Learner = Altune_core.Learner
module Checkpoint = Altune_core.Checkpoint
module Fault = Altune_exec.Fault
module Rng = Altune_prng.Rng
module Trace = Altune_obs.Trace
module Obs_metrics = Altune_obs.Metrics
module Manifest = Altune_obs.Manifest
module Summary = Altune_obs.Summary
module Events = Altune_obs.Events
module Bench_diff = Altune_obs.Bench_diff
module Json = Altune_obs.Json
module Web_report = Altune_report.Web_report
module Dashboard = Altune_report.Dashboard
module Obs_flight = Altune_obs.Flight
module Obs_snapshot = Altune_obs.Snapshot
module Conc_scenarios = Altune_conc.Scenarios
module Conc_explore = Altune_conc.Explore
module Serve_server = Altune_serve.Server
module Serve_daemon = Altune_serve.Daemon
open Cmdliner

let scale_arg =
  let parse s =
    match Scale.of_label s with
    | Some sc -> Ok sc
    | None -> Error (`Msg (Printf.sprintf "unknown scale %S" s))
  in
  let print ppf (s : Scale.t) = Format.pp_print_string ppf s.label in
  Arg.conv (parse, print)

let scale_term =
  Arg.(
    value
    & opt scale_arg Scale.quick
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:
          "Experiment scale: $(b,quick) (minutes), $(b,standard) (hours), \
           or $(b,paper) (the paper's full parameters).")

let seed_term =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED" ~doc:"Master random seed.")

let jobs_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains for parallel experiment execution (default: the \
           machine's recommended domain count minus one; 1 = sequential). \
           Results are bit-identical at any job count.")

let apply_jobs = function
  | None -> ()
  | Some j ->
      if j < 1 then begin
        Printf.eprintf "--jobs must be at least 1\n";
        exit 2
      end;
      Runs.set_jobs j

let trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL execution trace (spans for every pool task, \
           learner iteration phase, and simulated profiling run, plus the \
           run manifest) to $(docv).  Tracing never changes experiment \
           output: bytes on stdout are identical with and without it.  \
           Aggregate the file with $(b,altune trace-summary).")

let metrics_term =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Dump the metrics registry (pool queue waits, steals, memo \
           hit/miss counters, ...) to stderr after the command.")

let events_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Write the learner's decision stream (selections with scores and \
           revisit flags, per-evaluation RMSE, reference-set variance and \
           tree-shape introspection) as JSONL to $(docv).  The stream is \
           byte-identical at any $(b,--jobs) count and never changes \
           experiment output.  Render with $(b,altune report).")

let fault_arg =
  let parse s =
    match Fault.of_string s with Ok sp -> Ok sp | Error e -> Error (`Msg e)
  in
  let print ppf sp = Format.pp_print_string ppf (Fault.to_string sp) in
  Arg.conv (parse, print)

let fault_term =
  Arg.(
    value
    & opt (some fault_arg) None
    & info [ "fault-spec" ] ~docv:"SPEC"
        ~doc:
          "Inject deterministic simulated faults into every profiling \
           attempt.  $(docv) is comma-separated $(i,key=value) pairs: \
           $(b,crash), $(b,timeout) and $(b,corrupt) (per-attempt \
           probabilities), $(b,timeout_lost) (simulated seconds lost per \
           timeout), $(b,max_retries) (attempts beyond the first before a \
           configuration is marked dead) and $(b,backoff) (base simulated \
           backoff seconds, doubled per retry).  Fault draws are seeded \
           per learner run, so results stay bit-identical at any \
           $(b,--jobs) count.")

(* Run [f] under the observability requested on the command line: JSONL
   trace and learner-event sinks stamped with the run manifest, a
   top-level span named after the subcommand, and an optional metrics
   dump.  [f] is given the event sink, if [--events] asked for one, and
   passes it to the runs it makes.  Experiment stdout is produced by [f]
   as usual and stays byte-identical either way. *)
let with_obs ~command ~trace ~events ~metrics ~scale_label ~seed f =
  let body sink =
    Trace.with_span ~name:"command"
      ~attrs:[ ("command", Trace.String command) ]
      (fun () -> f sink)
  in
  let manifest () =
    Manifest.to_json
      (Manifest.capture ~scale:scale_label ~jobs:(Runs.jobs ()) ~seed ())
  in
  let with_events g =
    match events with
    | None -> g None
    | Some path ->
        Events.with_file path ~manifest:(manifest ()) (fun sink ->
            g (Some sink))
  in
  let result =
    match trace with
    | None -> with_events f
    | Some path ->
        Trace.with_file path ~manifest:(manifest ()) (fun () ->
            with_events body)
  in
  if metrics then prerr_string (Obs_metrics.render ());
  result

let benchmarks_term =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "benchmarks" ] ~docv:"NAMES"
        ~doc:"Comma-separated benchmark subset (default: all 11).")

(* An unknown name is a usage error, as it is for --scale. *)
let bench_arg =
  let parse name =
    match Drivers.check_benchmarks [ name ] with
    | () -> Ok name
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Format.pp_print_string)

let bench_term ~default =
  Arg.(
    value & opt bench_arg default
    & info [ "bench" ] ~docv:"NAME" ~doc:"Benchmark name.")

let check_benchmarks names =
  try Option.iter Drivers.check_benchmarks names
  with Invalid_argument msg ->
    prerr_endline msg;
    exit 2

(* An experiment command.  Every one takes --scale, --seed, --jobs,
   --trace and --metrics; [args] parses the driver's own options into the
   event file it writes, if it runs the learner, and the driver applied
   to them, awaiting that file's sink. *)
let experiment_cmd name ~doc args =
  let command = name in
  let term =
    Term.(
      const (fun scale seed jobs trace metrics (events, driver) ->
          apply_jobs jobs;
          with_obs ~command ~trace ~events ~metrics
            ~scale_label:scale.Scale.label ~seed (fun sink ->
              print_string (driver sink ~scale ~seed ());
              print_newline ()))
      $ scale_term $ seed_term $ jobs_term $ trace_term $ metrics_term
      $ args)
  in
  Cmd.v (Cmd.info name ~doc) term

let benchmarks_arg =
  Term.(
    const (fun benchmarks ->
        check_benchmarks benchmarks;
        benchmarks)
    $ benchmarks_term)

(* A driver that runs the learner also takes a fault spec and writes an
   event stream. *)
let learner_args driver =
  Term.(
    const (fun benchmarks fault events ->
        (events, fun sink -> driver ?benchmarks ?fault ?events:sink))
    $ benchmarks_arg $ fault_term $ events_term)

(* Every table and figure in one process, in the paper's order, so that
   Table 1 and Figures 5 and 6 share their learner runs through the
   [Runs.curves_for] memo instead of each recomputing them. *)
let all ?benchmarks ?fault ?events ~scale ~seed () =
  String.concat "\n"
    [
      Drivers.fig1 ~scale ~seed ();
      Drivers.fig2 ~scale ~seed ();
      Drivers.table2 ?benchmarks ~scale ~seed ();
      Drivers.table1 ?benchmarks ?fault ?events ~scale ~seed ();
      Drivers.fig5 ?benchmarks ?fault ?events ~scale ~seed ();
      Drivers.fig6 ?benchmarks ?fault ?events ~scale ~seed ();
      Drivers.ablation ?fault ?events ~scale ~seed ();
    ]

let ablation_args =
  Term.(
    const (fun bench fault events ->
        (events, fun sink -> Drivers.ablation ~bench ?fault ?events:sink))
    $ bench_term ~default:"gemver" $ fault_term $ events_term)

let list_cmd name doc =
  let term =
    Term.(
      const (fun () ->
          List.iter
            (fun name ->
              let b = Spapt.create name in
              Printf.printf "%-12s dim=%d space=%.2e knobs=%s\n" name
                (Spapt.dim b) (Spapt.space_size b)
                (String.concat ","
                   (List.map Spapt.knob_name (Spapt.knobs b))))
            Kernels.names)
      $ const ())
  in
  Cmd.v (Cmd.info name ~doc) term

let show_cmd name doc =
  let config_term =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "config" ] ~docv:"INTS"
          ~doc:"Configuration to apply before printing (comma-separated).")
  in
  let raw_term =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:"Print the transformed kernel without constant folding.")
  in
  let term =
    Term.(
      const (fun bench config raw ->
          let b = Spapt.create bench in
          let kernel =
            match Option.map Array.of_list config with
            | None -> Spapt.kernel b
            | Some c when Spapt.config_valid b c -> Spapt.transformed b c
            | Some _ ->
                Printf.eprintf
                  "show: --config is not a configuration of %s: it takes %d \
                   values, each within its knob's range\n"
                  bench (Spapt.dim b);
                Stdlib.exit 2
          in
          let kernel =
            if raw then kernel
            else Altune_kernellang.Simplify.kernel kernel
          in
          print_string (Pretty.to_string kernel))
      $ bench_term ~default:"mm" $ config_term $ raw_term)
  in
  Cmd.v (Cmd.info name ~doc) term

let check_cmd name doc =
  let samples_term =
    Arg.(
      value & opt int 3
      & info [ "samples" ] ~docv:"N"
          ~doc:
            "Random configurations to audit per benchmark, in addition to \
             the default configuration.")
  in
  let term =
    Term.(
      const (fun seed benchmarks samples ->
          check_benchmarks benchmarks;
          let samples = max 0 samples in
          let names =
            match benchmarks with Some ns -> ns | None -> Kernels.names
          in
          let failures = ref 0 in
          List.iter
            (fun name ->
              let b = Spapt.create name in
              let diags = Lint.lint (Spapt.kernel b) in
              (match Lint.errors diags with
              | [] ->
                  Printf.printf "%-12s lint : ok (%d warnings, %d notes)\n"
                    name
                    (Lint.count Lint.Warning diags)
                    (Lint.count Lint.Info diags)
              | errs ->
                  incr failures;
                  Printf.printf "%-12s lint : %d error(s)\n" name
                    (List.length errs);
                  List.iter
                    (fun d ->
                      Printf.printf "  %s\n" (Lint.diagnostic_to_string d))
                    errs);
              let rng =
                Rng.create ~seed:(Rng.derive ~seed [ S "check"; S name ])
              in
              let configs =
                Array.make (Spapt.dim b) 0
                :: List.init samples (fun _ -> Spapt.random_config b rng)
              in
              let sound = ref 0 in
              List.iter
                (fun c ->
                  let v = Spapt.verify_config b c in
                  if Verify.ok v then incr sound
                  else begin
                    incr failures;
                    print_string (Verify.verdict_to_string v);
                    print_newline ()
                  end)
                configs;
              Printf.printf "%-12s audit: %d/%d configurations sound\n" name
                !sound (List.length configs))
            names;
          if !failures > 0 then begin
            Printf.printf "check: %d failure(s)\n" !failures;
            Stdlib.exit 1
          end
          else
            print_endline
              "check: all kernels lint clean and all audited recipes are \
               sound")
      $ seed_term $ benchmarks_term $ samples_term)
  in
  Cmd.v (Cmd.info name ~doc) term

let trace_summary_cmd name doc =
  let file_term =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"JSONL trace written by $(b,--trace).")
  in
  let max_share_term =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-share" ] ~docv:"PCT"
          ~doc:
            "Fail (exit 1) if any phase's share of attributed time exceeds \
             $(docv) percent — a cheap perf-regression tripwire for CI.")
  in
  let term =
    Term.(
      const (fun file max_share ->
          match Summary.of_file file with
          | Error e ->
              Printf.eprintf "trace-summary: %s\n" e;
              Stdlib.exit 1
          | Ok s -> (
              print_string (Summary.render s);
              match max_share with
              | None -> ()
              | Some bound -> (
                  match Summary.violations s ~max_share:bound with
                  | [] ->
                      Printf.printf
                        "trace-summary: all phases within the %.1f%% bound\n"
                        bound
                  | vs ->
                      List.iter
                        (fun v -> Printf.printf "trace-summary: %s\n" v)
                        vs;
                      Stdlib.exit 1)))
      $ file_term $ max_share_term)
  in
  Cmd.v (Cmd.info name ~doc) term

let report_cmd name doc =
  let files_term =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"FILES"
          ~doc:
            "Input files: learner event streams ($(b,--events)), JSONL \
             traces ($(b,--trace)) and bench timing arrays \
             (BENCH_harness.json), in any mix.")
  in
  let out_term =
    Arg.(
      value & opt string "report.html"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the HTML report.")
  in
  let csv_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Also export the learner event stream as CSV to $(docv).")
  in
  let term =
    Term.(
      const (fun files out csv ->
          match Web_report.load files with
          | Error e ->
              Printf.eprintf "report: %s\n" e;
              Stdlib.exit 1
          | Ok inputs ->
              let oc = open_out out in
              output_string oc (Web_report.render inputs);
              close_out oc;
              (match csv with
              | None -> ()
              | Some path ->
                  Web_report.write_events_csv ~path inputs.events);
              Printf.printf
                "report: wrote %s (%d learner events, %d bench records%s)\n"
                out
                (List.length inputs.events)
                (List.length inputs.bench)
                (match csv with
                | None -> ""
                | Some path -> Printf.sprintf "; CSV in %s" path))
      $ files_term $ out_term $ csv_term)
  in
  Cmd.v (Cmd.info name ~doc) term

let bench_diff_cmd name doc =
  let baseline_term =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASELINE"
          ~doc:
            "Baseline records, each comparable one with its own \
             $(b,max_regress) bound in percent (bench/baseline.json).")
  in
  let current_term =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CURRENT" ~doc:"Current BENCH_harness.json.")
  in
  let term =
    Term.(
      const (fun baseline current ->
          let load name read path =
            match read path with
            | Ok records -> records
            | Error e ->
                Printf.eprintf "bench-diff: %s: %s\n" name e;
                Stdlib.exit 1
          in
          let d =
            Bench_diff.diff
              ~baseline:(load "baseline" Bench_diff.load_baseline baseline)
              ~current:(load "current" Bench_diff.load current)
          in
          print_string (Bench_diff.render d);
          let verdict, line = Bench_diff.verdict d in
          print_endline line;
          if verdict = Bench_diff.Regression then Stdlib.exit 1)
      $ baseline_term $ current_term)
  in
  Cmd.v (Cmd.info name ~doc) term

(* Everything tune prints after training — shared with [resume] so a
   resumed run's stdout is byte-identical to the uninterrupted run's. *)
let report_tuned b (outcome : Learner.outcome) ~seed =
  Printf.printf
    "trained on %d configurations (%d runs, %.0f simulated s); final RMSE \
     %.4f s\n"
    outcome.distinct_examples outcome.total_runs outcome.total_cost
    outcome.final_rmse;
  (* Search the model for the best predicted configuration with both
     random sampling and hill climbing; keep the better. *)
  let module Search = Altune_core.Search in
  let space =
    Search.space_of_cardinalities
      (Array.of_list (List.map Spapt.knob_cardinality (Spapt.knobs b)))
  in
  let rng = Rng.create ~seed:(seed + 1) in
  let sampled =
    Search.minimize ~rng space ~predict:outcome.predict
      (Search.Random_sampling 20_000)
  in
  let climbed =
    Search.minimize ~rng space ~predict:outcome.predict
      (Search.Hill_climbing { restarts = 10; max_steps = 60 })
  in
  let best =
    if climbed.predicted < sampled.predicted then climbed else sampled
  in
  let default = Array.make (Spapt.dim b) 0 in
  Printf.printf "default config : true runtime %.4f s\n"
    (Spapt.true_runtime b default);
  Printf.printf
    "best predicted : [%s] predicted %.4f s, true %.4f s (%d model \
     queries)\n"
    (String.concat ";" (List.map string_of_int (Array.to_list best.best)))
    best.predicted
    (Spapt.true_runtime b best.best)
    (sampled.evaluations + climbed.evaluations)

let tune_cmd name doc =
  let ckpt_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Periodically serialize the learner state to $(docv) (versioned \
             JSON, atomically replaced) so an interrupted run can be \
             continued with $(b,altune resume).  Checkpointing never \
             changes the run's output.")
  in
  let every_term =
    Arg.(
      value & opt int 10
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Iterations between checkpoints (with $(b,--checkpoint)); at \
             least 1.")
  in
  let halt_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "halt-at" ] ~docv:"N"
          ~doc:
            "Stop the run at the first checkpoint taken at iteration >= \
             $(docv), leaving the checkpoint file as the resume point \
             (prints nothing to stdout; used to exercise kill-and-resume \
             in tests and CI).  Requires $(b,--checkpoint).")
  in
  let term =
    Term.(
      const (fun scale seed bench fault ckpt every halt_at trace events
                 metrics ->
          if halt_at <> None && ckpt = None then begin
            Printf.eprintf "--halt-at requires --checkpoint\n";
            Stdlib.exit 2
          end;
          if every < 1 then begin
            Printf.eprintf "--checkpoint-every must be at least 1\n";
            Stdlib.exit 2
          end;
          let fail e =
            Printf.eprintf "tune: %s\n" e;
            Stdlib.exit 1
          in
          Result.iter_error fail
          @@ with_obs ~command:"tune" ~trace ~events ~metrics
               ~scale_label:scale.Scale.label ~seed
          @@ fun events ->
          (* Learn that the checkpoint cannot be written before the
             dataset is built, not at the first pause. *)
          Result.bind (Option.fold ~none:(Ok ()) ~some:Checkpoint.probe ckpt)
          @@ fun () ->
          let b = Spapt.create bench in
          let run =
            Tune_run.start ?events ~pool:(Runs.pool ()) b
              { bench; scale; seed; fault; n_max = None; budget = None }
          in
          (* One loop: with a checkpoint file the run pauses every
             [every] iterations to write it; without one, the first step
             runs to the end. *)
          let iterations = if ckpt = None then max_int else every in
          let halt_at = Option.value halt_at ~default:max_int in
          let rec go () =
            match (Tune_run.step run ~iterations, ckpt) with
            | Some outcome, _ -> Ok (report_tuned b outcome ~seed)
            | None, None -> go ()
            | None, Some path -> (
                match Tune_run.save run ~path with
                | Error e -> Error e
                | Ok iteration when iteration >= halt_at ->
                    (* Nothing on stdout: the resumed run must reproduce
                       the uninterrupted run's stdout byte-for-byte on
                       its own. *)
                    Printf.eprintf
                      "tune: halted at checkpoint; continue with 'altune \
                       resume %s'\n"
                      path;
                    Ok ()
                | Ok _ -> go ())
          in
          go ())
      $ scale_term $ seed_term $ bench_term ~default:"mm" $ fault_term
      $ ckpt_term $ every_term $ halt_term $ trace_term $ events_term
      $ metrics_term)
  in
  Cmd.v (Cmd.info name ~doc) term

let resume_cmd name doc =
  let ckpt_term =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"CKPT"
          ~doc:"Checkpoint file written by $(b,altune tune --checkpoint).")
  in
  let term =
    Term.(
      const (fun path trace events metrics ->
          match Tune_run.load path with
          | Error e ->
              Printf.eprintf "resume: %s\n" e;
              Stdlib.exit 1
          | Ok (spec, state) ->
              with_obs ~command:"resume" ~trace ~events ~metrics
                ~scale_label:spec.scale.Scale.label ~seed:spec.seed
              @@ fun events ->
              let b = Spapt.create spec.bench in
              let run =
                Tune_run.start ?events ~resume:state ~pool:(Runs.pool ()) b
                  spec
              in
              Option.iter
                (fun outcome -> report_tuned b outcome ~seed:spec.seed)
                (Tune_run.step run ~iterations:max_int))
      $ ckpt_term $ trace_term $ events_term $ metrics_term)
  in
  Cmd.v (Cmd.info name ~doc) term

let concheck_cmd name doc =
  let schedules_term =
    Arg.(
      value & opt int 4000
      & info [ "schedules" ] ~docv:"N"
          ~doc:
            "Schedule budget per scenario.  Small scenarios are first \
             enumerated exhaustively (with sleep-set pruning); any \
             remaining budget — and all of it for large scenarios — is \
             spent on seeded PCT and uniform-random schedules.")
  in
  let scenario_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Check only this scenario (see $(b,--list)).")
  in
  let min_distinct_term =
    Arg.(
      value & opt int 1000
      & info [ "min-distinct" ] ~docv:"N"
          ~doc:
            "Fail a scenario that explored fewer than $(docv) distinct \
             interleavings, unless its schedule space was exhausted \
             (exhaustion is a stronger guarantee than any sample size).")
  in
  let report_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write the full per-scenario report (including both access \
             sites of every race) to $(docv).")
  in
  let bench_out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench-out" ] ~docv:"FILE"
          ~doc:
            "Append an aggregate schedules/sec throughput record to the \
             bench record file $(docv) (such as BENCH_harness.json).")
  in
  let list_term =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the scenario catalog and exit.")
  in
  let term =
    Term.(
      const (fun schedules seed scenario min_distinct report_file bench_out
                 list ->
          if list then
            List.iter
              (fun (sc : Conc_scenarios.t) ->
                Printf.printf "%-16s %-16s %s\n" sc.name
                  (match sc.expect with
                  | Conc_scenarios.Clean -> "clean"
                  | Conc_scenarios.Race -> "race-fixture"
                  | Conc_scenarios.Deadlock -> "deadlock-fixture")
                  sc.descr)
              Conc_scenarios.all
          else begin
            let scenarios =
              match scenario with
              | None -> Conc_scenarios.all
              | Some n -> (
                  match Conc_scenarios.find n with
                  | Some sc -> [ sc ]
                  | None ->
                      Printf.eprintf
                        "concheck: unknown scenario %S (try --list)\n" n;
                      Stdlib.exit 2)
            in
            let t0 = Unix.gettimeofday () in
            let reports =
              List.map
                (Conc_explore.run_scenario ~budget:schedules ~seed)
                scenarios
            in
            let wall = Unix.gettimeofday () -. t0 in
            let failures = ref 0 in
            List.iter
              (fun (r : Conc_explore.report) ->
                let thin =
                  (not r.exhausted) && r.distinct < min_distinct
                in
                if (not r.passed) || thin then incr failures;
                print_string (Conc_explore.summary_line r);
                print_newline ();
                if thin then
                  Printf.printf
                    "  FAIL: only %d distinct schedules (< %d) and the \
                     space was not exhausted\n"
                    r.distinct min_distinct;
                List.iter
                  (fun v -> Printf.printf "  violation: %s\n" v)
                  r.violations)
              reports;
            let total_schedules =
              List.fold_left
                (fun acc (r : Conc_explore.report) -> acc + r.schedules_run)
                0 reports
            in
            let rate =
              if wall > 0.0 then float_of_int total_schedules /. wall else 0.0
            in
            Printf.printf
              "concheck: %d scenario(s), %d schedules in %.2fs (%.0f \
               schedules/sec), seed %d\n"
              (List.length reports) total_schedules wall rate seed;
            (match report_file with
            | None -> ()
            | Some path ->
                let oc = open_out path in
                List.iter
                  (fun r -> output_string oc (Conc_explore.report_to_string r))
                  reports;
                close_out oc;
                Printf.printf "concheck: full report in %s\n" path);
            (match bench_out with
            | None -> ()
            | Some path -> (
                let record =
                  Bench_diff.record
                    ~manifest:(Manifest.capture ~scale:"conc" ~jobs:1 ~seed ())
                    ~section:"concheck" ~seconds:wall ~rate:(rate, "sched/s")
                    ~extras:[ ("schedules", Json.Int total_schedules) ]
                    ()
                in
                match Bench_diff.append path [ record ] with
                | Ok () -> ()
                | Error e ->
                    Printf.eprintf "concheck: %s\n" e;
                    Stdlib.exit 1));
            if !failures > 0 then begin
              Printf.printf "concheck: %d scenario(s) FAILED\n" !failures;
              Stdlib.exit 1
            end
          end)
      $ schedules_term $ seed_term $ scenario_term $ min_distinct_term
      $ report_term $ bench_out_term $ list_term)
  in
  Cmd.v (Cmd.info name ~doc) term

let serve_cmd name doc =
  let socket_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket at $(docv) (one client \
             connection at a time; sessions persist across connections).  \
             Default without $(b,--socket) or $(b,--script): serve \
             stdin/stdout.")
  in
  let script_term =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:
            "Read request lines from $(docv) instead of a live transport, \
             writing one response line per request to stdout — a \
             deterministic transcript: same script, same bytes, at any \
             $(b,--jobs) count.")
  in
  let serve_jobs_term =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Domains in the server's pool; $(b,tick) requests step all \
             live sessions in parallel across them.  Responses are \
             byte-identical at any job count.")
  in
  let max_live_term =
    Arg.(
      value & opt int Serve_server.default_config.Serve_server.max_live
      & info [ "max-live" ] ~docv:"N"
          ~doc:"Admission control: sessions allowed to run concurrently.")
  in
  let max_queue_term =
    Arg.(
      value & opt int Serve_server.default_config.Serve_server.max_queue
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission control: sessions held in the FIFO queue beyond \
             the live ones before opens are rejected.")
  in
  let budget_cap_term =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget-cap" ] ~docv:"SECONDS"
          ~doc:
            "Reject sessions whose requested simulated-cost budget \
             exceeds $(docv) (and require every session to declare one).")
  in
  let ckpt_dir_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Where graceful shutdown (SIGINT/SIGTERM or a $(b,shutdown) \
             request) checkpoints live sessions opened without an \
             explicit checkpoint path; resume them with $(b,altune \
             resume).")
  in
  let snapshots_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshots" ] ~docv:"FILE"
          ~doc:
            "Append one telemetry snapshot record (counters, gauges, \
             latency-sketch quantiles, GC deltas, queue depth, memo hit \
             rate) to the rotating JSONL series at $(docv) every \
             $(b,--snapshot-every) seconds, plus one final record at \
             shutdown.  Render with $(b,altune dashboard).")
  in
  let snapshot_every_term =
    Arg.(
      value
      & opt float Serve_server.default_config.Serve_server.snapshot_every
      & info [ "snapshot-every" ] ~docv:"SECONDS"
          ~doc:"Snapshot pump cadence (floor: the transport poll interval).")
  in
  let flight_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "flight" ] ~docv:"N"
          ~doc:
            "Keep tracing permanently on into a bounded in-memory flight \
             recorder retaining the last $(docv) spans per domain.  \
             Dumped to $(b,--flight-dump) on SIGUSR1 and into the \
             $(b,--ledger) on any error reply.  Mutually exclusive with \
             $(b,--trace) (which records everything to disk instead).")
  in
  let flight_dump_term =
    Arg.(
      value & opt string "flight-dump.jsonl"
      & info [ "flight-dump" ] ~docv:"FILE"
          ~doc:"Where a SIGUSR1 dumps the flight recorder.")
  in
  let ledger_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Append-only failure ledger: every request that draws an \
             error reply is recorded as one JSON line with the \
             offending line and the flight recorder's retained spans.")
  in
  let term =
    Term.(
      const (fun socket script jobs max_live max_queue budget_cap
                 checkpoint_dir snapshots snapshot_every flight flight_dump
                 ledger trace events metrics ->
          if jobs < 1 then begin
            Printf.eprintf "--jobs must be at least 1\n";
            Stdlib.exit 2
          end;
          if max_live < 1 then begin
            Printf.eprintf "--max-live must be at least 1\n";
            Stdlib.exit 2
          end;
          if flight <> None && trace <> None then begin
            Printf.eprintf
              "--flight and --trace both claim the trace sink; pick one\n";
            Stdlib.exit 2
          end;
          let recorder =
            Option.map (fun n -> Obs_flight.create ~capacity:n ()) flight
          in
          let config =
            {
              Serve_server.jobs;
              max_live;
              max_queue = max 0 max_queue;
              budget_cap;
              checkpoint_dir;
              snapshot_path = snapshots;
              snapshot_every = Float.max 0.1 snapshot_every;
              flight = recorder;
              ledger_path = ledger;
            }
          in
          with_obs ~command:"serve" ~trace ~events ~metrics
            ~scale_label:"serve" ~seed:0
          @@ fun events ->
          Option.iter Obs_flight.install recorder;
          let server = Serve_server.create ?events config in
          match script with
          | Some path ->
              Serve_daemon.serve_script ~flight_dump server ~path
                ~output:Unix.stdout
          | None -> (
              let stop = Serve_daemon.make_stop () in
              let usr1 = Serve_daemon.make_flag () in
              Serve_daemon.install_signal_handlers ~usr1 stop;
              match socket with
              | Some path ->
                  Printf.eprintf "serve: listening on %s\n%!" path;
                  Serve_daemon.serve_socket ~stop ~usr1 ~flight_dump server
                    ~path
              | None ->
                  Serve_daemon.serve_stdio ~stop ~usr1 ~flight_dump server))
      $ socket_term $ script_term $ serve_jobs_term $ max_live_term
      $ max_queue_term $ budget_cap_term $ ckpt_dir_term $ snapshots_term
      $ snapshot_every_term $ flight_term $ flight_dump_term $ ledger_term
      $ trace_term $ events_term $ metrics_term)
  in
  Cmd.v (Cmd.info name ~doc) term

let dashboard_cmd name doc =
  let files_term =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"SNAPSHOTS"
          ~doc:
            "Snapshot JSONL series written by $(b,altune serve \
             --snapshots) (or by bench/main.exe's serve section).  \
             Rotated predecessors ($(i,FILE.1), $(i,FILE.2), ...) are \
             loaded automatically, oldest first.")
  in
  let out_term =
    Arg.(
      value & opt string "dashboard.html"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the HTML dashboard.")
  in
  let title_term =
    Arg.(
      value & opt string "altune ops dashboard"
      & info [ "title" ] ~docv:"TITLE" ~doc:"Page title.")
  in
  let min_records_term =
    Arg.(
      value & opt int 1
      & info [ "min-records" ] ~docv:"N"
          ~doc:
            "Fail unless at least $(docv) records were loaded — a CI \
             tripwire that the snapshot pump actually ran.")
  in
  let term =
    Term.(
      const (fun files out title min_records ->
          let records = List.concat_map Obs_snapshot.load_all files in
          if List.length records < max 1 min_records then begin
            Printf.eprintf "dashboard: %d record(s) in %s, need %d\n"
              (List.length records)
              (String.concat ", " files)
              (max 1 min_records);
            Stdlib.exit 1
          end;
          let oc = open_out out in
          output_string oc (Dashboard.render ~title records);
          close_out oc;
          Printf.printf "dashboard: wrote %s (%d records)\n" out
            (List.length records))
      $ files_term $ out_term $ title_term $ min_records_term)
  in
  Cmd.v (Cmd.info name ~doc) term

(* The single subcommand roster.  Every command's name and one-line
   summary live in this table and nowhere else — the command group (and
   with it --help's COMMANDS section and the unknown-command error's
   suggestion list) is generated from it, so the rosters cannot drift
   apart again. *)
let command_table =
  [
    ( "table1",
      "Lowest common RMSE, cost, and speed-up (Table 1).",
      fun name doc -> experiment_cmd name ~doc (learner_args Drivers.table1)
    );
    ( "table2",
      "Variance and CI/mean spreads across each space (Table 2).",
      fun name doc ->
        experiment_cmd name ~doc
          Term.(
            const (fun benchmarks ->
                (None, fun _ -> Drivers.table2 ?benchmarks))
            $ benchmarks_arg) );
    ( "fig1",
      "MAE and optimal sample count over the mm unroll plane (Figure 1).",
      fun name doc ->
        experiment_cmd name ~doc (Term.const (None, fun _ -> Drivers.fig1))
    );
    ( "fig2",
      "adi runtime vs. unroll factor, single samples (Figure 2).",
      fun name doc ->
        experiment_cmd name ~doc (Term.const (None, fun _ -> Drivers.fig2))
    );
    ( "fig5",
      "Profiling-cost reduction bars (Figure 5).",
      fun name doc -> experiment_cmd name ~doc (learner_args Drivers.fig5) );
    ( "fig6",
      "RMSE-vs-cost curves for the three sampling plans (Figure 6).",
      fun name doc -> experiment_cmd name ~doc (learner_args Drivers.fig6) );
    ( "ablation",
      "Design-choice ablations of the adaptive learner.",
      fun name doc -> experiment_cmd name ~doc ablation_args );
    ( "all",
      "fig1, fig2, table2, table1, fig5, fig6 and ablation in one \
       process, sharing their learner runs; $(b,--benchmarks) restricts \
       table2, table1, fig5 and fig6.",
      fun name doc -> experiment_cmd name ~doc (learner_args all) );
    ("list", "List benchmarks and their tunable spaces.", list_cmd);
    ( "show",
      "Print a benchmark kernel, optionally after transformations.",
      show_cmd );
    ( "check",
      "Lint every benchmark kernel and audit a sample of its \
       transformation space for soundness (legality, dependence \
       re-analysis, access counts, differential execution).",
      check_cmd );
    ( "tune",
      "Train an adaptive model on a benchmark and report the best \
       configuration it finds.",
      tune_cmd );
    ( "resume",
      "Continue an interrupted altune tune run (or a checkpointed serve \
       session) from its checkpoint file, reproducing the uninterrupted \
       run's output byte-for-byte.",
      resume_cmd );
    ( "serve",
      "Run the multi-tenant tuning service: named resumable sessions \
       over newline-delimited JSON (stdin/stdout, a Unix socket, or a \
       request script), multiplexed onto one pool with a shared \
       cross-session memo so identical configurations are profiled once \
       process-wide.",
      serve_cmd );
    ( "dashboard",
      "Render a daemon's snapshot time series (altune serve \
       --snapshots) into a self-contained HTML ops dashboard: latency \
       quantiles, throughput, admission load, memo hit rate and GC \
       activity, with overload tripwires drawn as annotated bands.",
      dashboard_cmd );
    ( "trace-summary",
      "Aggregate a JSONL trace into a per-phase time breakdown \
       (candidate generation, ALC scoring, tree updates, simulated \
       profiling, dataset generation), attributing each span's \
       self-time, with an optional per-phase share bound for CI.",
      trace_summary_cmd );
    ( "report",
      "Render event streams, traces and bench timings into one \
       self-contained HTML report with inline SVG charts \
       (error-vs-cost, variance decay, revisit fraction, sensitivity \
       bars) — no external assets.",
      report_cmd );
    ( "bench-diff",
      "Compare a BENCH_harness.json file with a baseline and fail when a \
       section slowed down by more than its baseline record's \
       max_regress percent.  Only records whose manifest matches (same \
       host, cores, scale and job count) are compared; anything else — \
       other machines, pre-manifest history — is skipped, never guessed \
       at, and a run that compared no record ends with a skip line \
       instead of a pass.",
      bench_diff_cmd );
    ( "concheck",
      "Model-check the execution engine's concurrency: run bounded \
       pool/memo/fault scenarios under many deterministically-seeded \
       thread interleavings (cooperative scheduler over the Sync shim), \
       detect data races with FastTrack-style vector clocks (reporting \
       both access sites), detect deadlocks and lost wakeups, and \
       assert that everything the engine promises is schedule-invariant \
       actually is.  Deliberately-broken fixtures validate the detector \
       itself.  Exit 1 on any violation.",
      concheck_cmd );
  ]

let () =
  let doc =
    "Reproduction of 'Minimizing the Cost of Iterative Compilation with \
     Active Learning' (CGO 2017)."
  in
  let info = Cmd.info "altune" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          (List.map (fun (name, doc, make) -> make name doc) command_table)))
