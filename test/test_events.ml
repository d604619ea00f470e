(* Learner-event telemetry: JSON round-trips, sink ordering guarantees,
   byte-identical streams at any job count, telemetry-off neutrality,
   revisit-flag consistency with the adaptive plan, eval events agreeing
   with the learner's own curve, and the CSV/HTML report paths. *)

module Json = Altune_obs.Json
module Events = Altune_obs.Events
module Learner = Altune_core.Learner
module Dataset = Altune_core.Dataset
module Problem = Altune_core.Problem
module Rng = Altune_prng.Rng
module Runs = Altune_experiments.Runs
module Scale = Altune_experiments.Scale
module Drivers = Altune_experiments.Drivers
module Spapt = Altune_spapt.Spapt
module Web_report = Altune_report.Web_report

let ev_line ev = Json.to_string (Events.to_json ev)

let parse_event line =
  match Json.of_string line with
  | Error e -> Alcotest.failf "bad event line %S: %s" line e
  | Ok j -> (
      match Events.of_json j with
      | Ok ev -> ev
      | Error e -> Alcotest.failf "bad event %S: %s" line e)

(* --- JSON round-trip ---------------------------------------------------- *)

let sample_events =
  [
    {
      Events.run = "mm/smoke/adaptive/0";
      seq = 0;
      kind =
        Events.Start
          {
            plan = "adaptive:35";
            strategy = "alc";
            model = "dynatree";
            dim = 4;
            pool = 187;
            n_max = 50;
          };
    };
    {
      Events.run = "mm/smoke/adaptive/0";
      seq = 1;
      kind =
        Events.Select
          {
            iteration = 5;
            config = "5,1,4,20";
            score = 0.03125;
            revisit = true;
            config_obs = 3;
            examples = 5;
            observations = 41;
            cost_s = 947.25;
          };
    };
    {
      Events.run = "mm/smoke/adaptive/0";
      seq = 2;
      kind =
        Events.Eval
          {
            iteration = 10;
            examples = 10;
            observations = 46;
            cost_s = 982.5;
            rmse = 13.84;
            ref_variance = 0.8125;
            tree =
              Some
                {
                  mean_leaves = 1.25;
                  max_depth = 2;
                  depth_histogram = [| 20; 4; 1 |];
                  split_frequencies = [| 0.5; 0.25; 0.25; 0.0 |];
                };
          };
    };
    {
      Events.run = "gp-run";
      seq = 3;
      kind =
        Events.Eval
          {
            iteration = 10;
            examples = 10;
            observations = 46;
            cost_s = 982.5;
            rmse = 13.84;
            ref_variance = 0.8125;
            tree = None;
          };
    };
    {
      Events.run = "mm/smoke/adaptive/0";
      seq = 4;
      kind =
        Events.Finish
          {
            iterations = 50;
            examples = 50;
            observations = 86;
            cost_s = 1426.5;
            rmse = 10.02;
          };
    };
  ]

let test_json_roundtrip () =
  List.iter
    (fun ev ->
      let line = ev_line ev in
      let ev' = parse_event line in
      Alcotest.(check string) "round-trip" line (ev_line ev'))
    sample_events

let test_of_lines_mixed () =
  let manifest =
    Altune_obs.Manifest.to_json
      (Altune_obs.Manifest.capture ~scale:"smoke" ~jobs:2 ~seed:1 ())
  in
  let lines =
    [
      Json.to_string manifest;
      "";
      ev_line (List.hd sample_events);
      (* A span line from a concatenated trace: not ours, skipped. *)
      {|{"ev":"span","name":"x","t0":0.0,"t1":1.0}|};
      ev_line (List.nth sample_events 1);
    ]
  in
  match Events.of_lines lines with
  | Error e -> Alcotest.failf "of_lines: %s" e
  | Ok f ->
      Alcotest.(check int) "two learner events" 2 (List.length f.events);
      Alcotest.(check bool) "manifest captured" true (Option.is_some f.manifest);
      (match Events.of_lines [ {|{"no":"tag"}|} ] with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "line without ev tag accepted");
      (match Events.of_lines [ "garbage" ] with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "malformed line accepted");
      (match Events.of_lines [ {|{"ev":"learner","kind":"nope"}|} ] with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "unknown learner kind accepted")

(* --- Sink ordering ------------------------------------------------------ *)

let test_sink_sorts_by_run_and_seq () =
  let dummy i =
    Events.Finish
      { iterations = i; examples = 0; observations = 0; cost_s = 0.0;
        rmse = 0.0 }
  in
  let (), lines =
    Events.with_memory (fun sink ->
        (* Emitted out of run order: the sink must order by key. *)
        let zeta = Events.stream sink "zeta" in
        Events.emit zeta (dummy 0);
        Events.emit zeta (dummy 1);
        Events.emit (Events.stream sink "alpha") (dummy 2))
  in
  let keys =
    List.map
      (fun l ->
        let ev = parse_event l in
        (ev.Events.run, ev.Events.seq))
      lines
  in
  Alcotest.(check (list (pair string int)))
    "sorted by (run, seq)"
    [ ("alpha", 0); ("zeta", 0); ("zeta", 1) ]
    keys

(* --- Full-pipeline properties ------------------------------------------- *)

(* One captured smoke-scale event stream, shared across the checks below
   (capturing it costs a full three-plan experiment). *)
let captured =
  lazy
    (let run jobs =
       Runs.set_jobs jobs;
       Runs.clear_cache ();
       let curves, lines =
         Events.with_memory (fun events ->
             Runs.curves_for ~events (Spapt.create "lu") Scale.smoke ~seed:3)
       in
       Runs.clear_cache ();
       Runs.set_jobs 1;
       (curves, lines)
     in
     let seq_curves, seq_lines = run 1 in
     let _, par_lines = run 4 in
     (seq_curves, seq_lines, par_lines))

let test_stream_identical_across_jobs () =
  let _, seq_lines, par_lines = Lazy.force captured in
  Alcotest.(check bool) "stream non-empty" true (seq_lines <> []);
  Alcotest.(check (list string)) "jobs=1 = jobs=4" seq_lines par_lines

let test_output_identical_with_events () =
  let run ?events () =
    Runs.clear_cache ();
    Drivers.table1 ~benchmarks:[ "hessian" ] ?events ~scale:Scale.smoke
      ~seed:1 ()
  in
  let plain = run () in
  let with_ev, lines = Events.with_memory (fun events -> run ~events ()) in
  Runs.clear_cache ();
  Alcotest.(check string) "byte-identical table" plain with_ev;
  Alcotest.(check bool) "events recorded" true (lines <> [])

let test_revisit_flags_consistent () =
  let _, lines, _ = Lazy.force captured in
  let events = List.map parse_event lines in
  let max_obs =
    match Scale.smoke.adaptive.plan with
    | Learner.Adaptive { max_obs } -> max_obs
    | Learner.Fixed _ -> Alcotest.fail "smoke adaptive plan is Fixed"
  in
  let selects = Hashtbl.create 16 in
  List.iter
    (fun (ev : Events.t) ->
      match ev.kind with
      | Events.Select s ->
          Hashtbl.replace selects ev.run
            (s :: Option.value ~default:[] (Hashtbl.find_opt selects ev.run))
      | _ -> ())
    events;
  Alcotest.(check bool) "has select events" true (Hashtbl.length selects > 0);
  Hashtbl.iter
    (fun run sels ->
      let adaptive =
        List.exists
          (fun part -> part = "adaptive")
          (String.split_on_char '/' run)
      in
      List.iter
        (fun (s : Events.select) ->
          if s.revisit then begin
            Alcotest.(check bool)
              "revisits only under the adaptive plan" true adaptive;
            Alcotest.(check bool)
              "revisited config had prior observations" true (s.config_obs >= 1);
            Alcotest.(check bool)
              "revisited config below max_obs" true (s.config_obs < max_obs)
          end
          else
            Alcotest.(check int) "fresh config starts at zero" 0 s.config_obs)
        sels)
    selects

(* A cheap synthetic problem, its dataset and small learner settings. *)
let synthetic () =
  let problem =
    {
      Problem.name = "synthetic";
      dim = 2;
      space_size = 400.0;
      random_config = (fun rng -> [| Rng.int rng 20; Rng.int rng 20 |]);
      features =
        (fun c -> Array.map (fun v -> (float_of_int v -. 9.5) /. 5.766) c);
      measure =
        (fun ~rng ~run_index c ->
          ignore run_index;
          let x = float_of_int c.(0) and y = float_of_int c.(1) in
          let truth =
            1.0
            +. (0.01 *. ((x -. 12.0) ** 2.0))
            +. (0.02 *. ((y -. 5.0) ** 2.0))
          in
          Float.max 1e-6 (truth *. (1.0 +. Rng.normal ~sigma:0.05 rng)));
      compile_seconds = (fun _ -> 0.05);
      prepare = ignore;
    }
  in
  let dataset =
    Dataset.generate problem ~rng:(Rng.create ~seed:3) ~n_configs:300
      ~test_fraction:0.25 ~n_obs:10
  in
  let settings =
    {
      Learner.scaled_settings with
      n_init = 4;
      n_obs_init = 10;
      n_candidates = 20;
      n_max = 40;
      eval_every = 5;
      ref_size = 50;
      model = Altune_core.Surrogate.dynatree ~particles:40 ();
    }
  in
  (problem, dataset, settings)

let test_eval_events_match_curve () =
  (* Against the synthetic problem: the eval events must be the learner's
     own curve, point for point. *)
  let problem, dataset, settings = synthetic () in
  let outcome, lines =
    Events.with_memory (fun sink ->
        Learner.run ~events:(Events.stream sink "syn/t/adaptive/0") problem
          dataset settings ~rng:(Rng.create ~seed:5))
  in
  let evals =
    List.filter_map
      (fun l ->
        match (parse_event l).kind with Events.Eval e -> Some e | _ -> None)
      lines
  in
  Alcotest.(check int)
    "one eval event per curve point"
    (List.length outcome.curve) (List.length evals);
  List.iter2
    (fun (p : Learner.eval_point) (e : Events.eval) ->
      Alcotest.(check int) "iteration" p.iteration e.iteration;
      Alcotest.(check int) "examples" p.examples e.examples;
      Alcotest.(check int) "observations" p.observations e.observations;
      Alcotest.(check (float 0.0)) "cost" p.cost_seconds e.cost_s;
      Alcotest.(check (float 0.0)) "rmse" p.rmse e.rmse;
      Alcotest.(check bool)
        "ref variance finite and non-negative" true
        (Float.is_finite e.ref_variance && e.ref_variance >= 0.0);
      match e.tree with
      | None -> Alcotest.fail "dynatree surrogate must report tree stats"
      | Some t ->
          Alcotest.(check bool) "leaves >= 1" true (t.mean_leaves >= 1.0);
          Alcotest.(check bool)
            "depth histogram sums to particles" true
            (Array.fold_left ( + ) 0 t.depth_histogram = 40))
    outcome.curve evals

(* A run given no stream emits nothing, even while another run writes to
   a sink: the streamed run's lines are the ones it writes alone. *)
let test_unstreamed_run_silent () =
  let problem, dataset, settings = synthetic () in
  let rng () = Rng.create ~seed:5 in
  let streamed sink =
    Learner.start ~events:(Events.stream sink "syn/t/adaptive/0") problem
      dataset settings ~rng:(rng ())
  in
  let (), alone =
    Events.with_memory (fun sink ->
        ignore (Learner.step (streamed sink) ~iterations:max_int))
  in
  let (), together =
    Events.with_memory (fun sink ->
        let l = streamed sink in
        ignore (Learner.step l ~iterations:10);
        ignore (Learner.run problem dataset settings ~rng:(rng ()));
        ignore (Learner.step l ~iterations:max_int))
  in
  Alcotest.(check bool) "the streamed run emits" true (alone <> []);
  Alcotest.(check (list string)) "only the streamed run's lines" alone together

(* --- Report paths ------------------------------------------------------- *)

let test_csv_export () =
  let csv = Web_report.events_csv sample_events in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one row per event"
    (1 + List.length sample_events)
    (List.length lines);
  Alcotest.(check bool) "header names the revisit column" true
    (String.length (List.hd lines) > 0
    && String.split_on_char ',' (List.hd lines) |> List.mem "revisit")

let test_html_report_matches_curves () =
  let curves, lines, _ = Lazy.force captured in
  let path = Filename.temp_file "events" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      match Web_report.load [ path ] with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok inputs ->
          let html = Web_report.render inputs in
          let html2 = Web_report.render inputs in
          Alcotest.(check string) "render is deterministic" html html2;
          let contains needle =
            let n = String.length needle and h = String.length html in
            let rec go i =
              i + n <= h && (String.sub html i n = needle || go (i + 1))
            in
            n > 0 && go 0
          in
          Alcotest.(check bool) "contains SVG" true (contains "<svg");
          (* The averaged error-vs-cost values in the report's data tables
             must be exactly the values [Runs.curves_for] reports. *)
          let check_curve name curve =
            List.iter
              (fun (p : Learner.eval_point) ->
                let cell v = Printf.sprintf "<td>%.12g</td>" v in
                if not (contains (cell p.cost_seconds)) then
                  Alcotest.failf "%s: cost %.12g missing from report" name
                    p.cost_seconds;
                if not (contains (cell p.rmse)) then
                  Alcotest.failf "%s: rmse %.12g missing from report" name
                    p.rmse)
              curve
          in
          check_curve "fixed" curves.all_observations;
          check_curve "one" curves.one_observation;
          check_curve "adaptive" curves.variable_observations)

let () =
  Alcotest.run "events"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "mixed JSONL parsing" `Quick test_of_lines_mixed;
        ] );
      ( "sink",
        [
          Alcotest.test_case "sorted by run and seq" `Quick
            test_sink_sorts_by_run_and_seq;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "stream identical across jobs" `Slow
            test_stream_identical_across_jobs;
          Alcotest.test_case "telemetry off changes nothing" `Slow
            test_output_identical_with_events;
          Alcotest.test_case "revisit flags consistent" `Slow
            test_revisit_flags_consistent;
          Alcotest.test_case "eval events match curve" `Quick
            test_eval_events_match_curve;
          Alcotest.test_case "a run without a stream emits nothing" `Quick
            test_unstreamed_run_silent;
        ] );
      ( "report",
        [
          Alcotest.test_case "CSV export" `Quick test_csv_export;
          Alcotest.test_case "HTML curves match curves_for" `Slow
            test_html_report_matches_curves;
        ] );
    ]
