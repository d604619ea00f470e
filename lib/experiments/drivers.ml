module Spapt = Altune_spapt.Spapt
module Rng = Altune_prng.Rng
module Learner = Altune_core.Learner
module Experiment = Altune_core.Experiment
module Welford = Altune_stats.Welford
module Descriptive = Altune_stats.Descriptive
module Report = Altune_report.Report
module Pool = Altune_exec.Pool
module Fault = Altune_exec.Fault
module Events = Altune_obs.Events

let default_benchmarks = Altune_spapt.Kernels.names

let rec check_benchmarks = function
  | [] -> ()
  | name :: rest ->
      if not (List.mem name default_benchmarks) then
        invalid_arg
          (Printf.sprintf "unknown benchmark %S; known: %s" name
             (String.concat ", " default_benchmarks));
      if List.mem name rest then
        invalid_arg (Printf.sprintf "benchmark %S is listed twice" name);
      check_benchmarks rest

let bench_list ?(default = default_benchmarks) benchmarks =
  let names = Option.value ~default benchmarks in
  check_benchmarks names;
  List.map Spapt.create names

(* Fan a per-benchmark computation out across the shared pool, one task
   per benchmark; results come back in benchmark order, keeping reports
   schedule-independent.  The whole fan-out is one traced span, with each
   benchmark a child [pool.task] span. *)
let map_benches ~section f benches =
  let names = Array.of_list (List.map Spapt.name benches) in
  Altune_obs.Trace.with_span
    ~name:(Printf.sprintf "driver.%s" section)
    (fun () ->
      Pool.map
        ~label:(fun i -> Printf.sprintf "%s/%s" section names.(i))
        (Runs.pool ()) f benches)

(* A speed-up can be undefined — a plan whose every run died under fault
   injection yields nan/inf costs — and [Descriptive.geometric_mean]
   rejects non-positive entries.  Summary cells degrade to "n/a" instead
   of raising mid-render; with all entries finite and positive the output
   is unchanged. *)
let ratio_cell v =
  if Float.is_finite v && v > 0.0 then Printf.sprintf "%.2f" v else "n/a"

let geo_mean_cell speedups =
  match List.filter (fun v -> Float.is_finite v && v > 0.0) speedups with
  | [] -> "n/a"
  | ok -> Printf.sprintf "%.2f" (Descriptive.geometric_mean (Array.of_list ok))

(* --- Table 1 --- *)

let table1_rows ?fault ?events ~scale ~seed benches =
  map_benches ~section:"table1"
    (fun bench ->
      let pc = Runs.curves_for ?fault ?events bench scale ~seed in
      let cmp =
        Experiment.compare_curves ~baseline:pc.all_observations
          ~ours:pc.variable_observations
      in
      (Spapt.name bench, Spapt.space_size bench, cmp))
    benches

let table1 ?benchmarks ?fault ?events ~scale ~seed () =
  let rows = table1_rows ?fault ?events ~scale ~seed (bench_list benchmarks) in
  let speedups = List.map (fun (_, _, c) -> c.Experiment.speedup) rows in
  let geo = geo_mean_cell speedups in
  let body =
    List.map
      (fun (name, space, (c : Experiment.comparison)) ->
        [
          name;
          Report.sci space;
          Report.f3 c.lowest_common_rmse;
          Report.sci c.cost_baseline;
          Report.sci c.cost_ours;
          ratio_cell c.speedup;
        ])
      rows
    @ [ [ "geometric mean"; ""; ""; ""; ""; geo ] ]
  in
  Printf.sprintf
    "Table 1: lowest common RMS error, profiling cost to reach it, speed-up\n\
     (scale=%s, seed=%d, %d repetition(s); costs are simulated seconds)\n\n%s"
    scale.Scale.label seed scale.Scale.reps
    (Report.Table.render
       ~headers:
         [
           "benchmark";
           "search space";
           "lowest common RMSE";
           "cost baseline (s)";
           "cost ours (s)";
           "speed-up";
         ]
       ~rows:body)

(* --- Table 2 --- *)

let table2_row bench ~scale ~seed =
  let rng =
    Rng.create ~seed:(Rng.derive ~seed [ S "table2"; S (Spapt.name bench) ])
  in
  let n = scale.Scale.table2_configs in
  let variances = Array.make n 0.0 in
  let ci35 = Array.make n 0.0 in
  let ci5 = Array.make n 0.0 in
  let ci2 = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let config = Spapt.random_config bench rng in
    let w35 = ref Welford.empty in
    for run_index = 1 to 35 do
      w35 := Welford.add !w35 (Spapt.measure bench ~rng ~run_index config)
    done;
    let w5 = ref Welford.empty in
    for run_index = 1 to 5 do
      w5 := Welford.add !w5 (Spapt.measure bench ~rng ~run_index config)
    done;
    let w2 = ref Welford.empty in
    for run_index = 1 to 2 do
      w2 := Welford.add !w2 (Spapt.measure bench ~rng ~run_index config)
    done;
    variances.(i) <- Welford.variance !w35;
    ci35.(i) <- Welford.ci_over_mean !w35;
    ci5.(i) <- Welford.ci_over_mean !w5;
    ci2.(i) <- Welford.ci_over_mean !w2
  done;
  let s3 a = Descriptive.summary a in
  ((s3 variances, s3 ci35, s3 ci5), (ci35, ci5, ci2))

(* The paper's Section 4.3 post-hoc validation: what fraction of examples
   breach a CI/mean threshold under each fixed plan?  (Paper: 5% of
   35-observation examples breach 1%; 0.5% breach 5%; 3.3% of
   5-observation and 5% of 2-observation examples breach 5%.) *)
let breach_fractions rows =
  let frac threshold a =
    let n = Array.length a in
    let hits = Array.fold_left (fun acc c -> if c > threshold then acc + 1 else acc) 0 a in
    100.0 *. float_of_int hits /. float_of_int (max 1 n)
  in
  let all35 = Array.concat (List.map (fun (c35, _, _) -> c35) rows) in
  let all5 = Array.concat (List.map (fun (_, c5, _) -> c5) rows) in
  let all2 = Array.concat (List.map (fun (_, _, c2) -> c2) rows) in
  String.concat "\n"
    [
      "Post-hoc sampling-plan validation (paper Section 4.3): breaches of";
      "the 95% CI/mean threshold across all sampled examples:";
      Printf.sprintf
        "  35 observations: %.1f%% breach 1%%, %.1f%% breach 5%%  (paper: 5%%, 0.5%%)"
        (frac 0.01 all35) (frac 0.05 all35);
      Printf.sprintf
        "   5 observations: %.1f%% breach 5%%              (paper: 3.3%%)"
        (frac 0.05 all5);
      Printf.sprintf
        "   2 observations: %.1f%% breach 5%%              (paper: 5%%)"
        (frac 0.05 all2);
    ]

let table2 ?benchmarks ~scale ~seed () =
  let results =
    map_benches ~section:"table2"
      (fun bench ->
        let ( (vmin, vmean, vmax),
              (c35min, c35mean, c35max),
              (c5min, c5mean, c5max) ), samples =
          table2_row bench ~scale ~seed
        in
        ( [
            Spapt.name bench;
            Report.sci vmin;
            Report.sci vmean;
            Report.sci vmax;
            Report.sci c35min;
            Report.sci c35mean;
            Report.sci c35max;
            Report.sci c5min;
            Report.sci c5mean;
            Report.sci c5max;
          ],
          samples ))
      (bench_list benchmarks)
  in
  let rows = List.map fst results in
  let raw = List.map snd results in
  Printf.sprintf
    "Table 2: spread of runtime variance and 95%% CI/mean (35- and 5-sample)\n\
     (scale=%s: %d random configurations per benchmark)\n\n%s\n%s\n"
    scale.Scale.label scale.Scale.table2_configs
    (breach_fractions raw)
    (Report.Table.render
       ~headers:
         [
           "benchmark";
           "var min";
           "var mean";
           "var max";
           "35s CI/m min";
           "35s CI/m mean";
           "35s CI/m max";
           "5s CI/m min";
           "5s CI/m mean";
           "5s CI/m max";
         ]
       ~rows)

(* --- Figure 1: mm unroll-factor grid --- *)

(* Knob indices in the mm configuration: 0..2 tiles, 3 jam i, 4 unroll j,
   5 unroll k.  The motivation sweep varies the two unroll knobs with all
   other optimizations off, mirroring the paper's (i1, i2) unroll plane. *)
let mm_grid_config ~j ~k = [| 0; 0; 0; 0; j; k |]

let fig1 ~scale ~seed () =
  let bench = Spapt.create "mm" in
  let rng = Rng.create ~seed:(Rng.derive ~seed [ S "fig1" ]) in
  let rows = min scale.Scale.fig1_max_grid 16 in
  let cols = min scale.Scale.fig1_max_grid 32 in
  let n_obs = scale.Scale.n_obs in
  (* Per grid point: n_obs measurements; MAE of a single observation and
     the smallest k whose k-sample mean stays within the threshold. *)
  let samples =
    Array.init rows (fun j ->
        Array.init cols (fun k ->
            let config = mm_grid_config ~j ~k in
            Array.init n_obs (fun run_index ->
                Spapt.measure bench ~rng ~run_index config)))
  in
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
  let grand_mean =
    mean (Array.concat (Array.to_list (Array.map Array.concat
      (Array.map Array.to_list samples))))
  in
  (* The paper's 0.1 ms threshold was ~0.12% of mm's mean runtime; apply
     the same relative threshold to our scale. *)
  let threshold = 0.0012 *. grand_mean in
  let mae_one j k =
    let s = samples.(j).(k) in
    let m = mean s in
    mean (Array.map (fun y -> Float.abs (y -. m)) s)
  in
  let optimal_samples j k =
    let s = samples.(j).(k) in
    let m = mean s in
    let boot = 40 in
    let rec find n =
      if n >= Array.length s then Array.length s
      else begin
        (* Bootstrap estimate of E|mean_n - m|. *)
        let acc = ref 0.0 in
        for _ = 1 to boot do
          let sub = ref 0.0 in
          for _ = 1 to n do
            sub := !sub +. s.(Rng.int rng (Array.length s))
          done;
          acc := !acc +. Float.abs ((!sub /. float_of_int n) -. m)
        done;
        if !acc /. float_of_int boot <= threshold then n else find (n + 1)
      end
    in
    find 1
  in
  let mae_map = Array.init rows (fun j -> Array.init cols (mae_one j)) in
  let opt_map = Array.init rows (fun j -> Array.init cols (optimal_samples j)) in
  let mae_opt j k =
    let s = samples.(j).(k) in
    let m = mean s in
    let n = opt_map.(j).(k) in
    let acc = ref 0.0 in
    let boot = 40 in
    for _ = 1 to boot do
      let sub = ref 0.0 in
      for _ = 1 to n do
        sub := !sub +. s.(Rng.int rng (Array.length s))
      done;
      acc := !acc +. Float.abs ((!sub /. float_of_int n) -. m)
    done;
    !acc /. float_of_int boot
  in
  let total_fixed = rows * cols * n_obs in
  let total_opt =
    Array.fold_left
      (fun acc row -> Array.fold_left ( + ) acc row)
      0 opt_map
  in
  String.concat "\n"
    [
      Printf.sprintf
        "Figure 1: mm unroll plane (%dx%d grid of unroll j x unroll k), %d \
         samples per point"
        rows cols n_obs;
      Printf.sprintf "MAE threshold: %.2e s (0.12%% of mean runtime)" threshold;
      "";
      Report.Plot.heat ~title:"(a) MAE with one sample per point (s)"
        ~xlabel:"unroll k factor" ~ylabel:"unroll j factor" ~rows ~cols
        (fun j k -> mae_map.(j).(k));
      Report.Plot.heat
        ~title:"(b) MAE with the optimal per-point sample count (s)"
        ~xlabel:"unroll k factor" ~ylabel:"unroll j factor" ~rows ~cols
        mae_opt;
      Report.Plot.heat
        ~title:"(c) optimal number of samples per point"
        ~xlabel:"unroll k factor" ~ylabel:"unroll j factor" ~rows ~cols
        (fun j k -> float_of_int opt_map.(j).(k));
      Printf.sprintf
        "Executions: fixed plan %d vs. per-point optimal %d (%.1f%% of fixed)"
        total_fixed total_opt
        (100.0 *. float_of_int total_opt /. float_of_int total_fixed);
    ]

(* --- Figure 2: adi runtime vs unroll factor, one sample each --- *)

let fig2 ~scale ~seed () =
  ignore scale;
  let bench = Spapt.create "adi" in
  let rng = Rng.create ~seed:(Rng.derive ~seed [ S "fig2" ]) in
  (* adi knobs: 0..3 tiles, 4 jam i1, 5 unroll i2, 6 unroll j1, 7 unroll
     j2.  Sweep unroll j1 with everything else off. *)
  let series =
    List.init 30 (fun u ->
        let config = [| 0; 0; 0; 0; 0; 0; u; 0 |] in
        let y = Spapt.measure bench ~rng ~run_index:(u + 1) config in
        (float_of_int (u + 1), y))
  in
  Printf.sprintf
    "Figure 2: adi runtime vs. unroll factor of loop j1 (one sample per \
     point)\n\n%s"
    (Report.Plot.line ~title:"adi, single observations"
       ~xlabel:"loop j1 unroll factor" ~ylabel:"runtime (s)"
       [ ("runtime", series) ])

(* --- Figure 5: cost-reduction bars --- *)

let fig5 ?benchmarks ?fault ?events ~scale ~seed () =
  let rows = table1_rows ?fault ?events ~scale ~seed (bench_list benchmarks) in
  let entries =
    List.map (fun (name, _, c) -> (name, c.Experiment.speedup)) rows
  in
  (* Non-finite speed-ups (a plan wiped out by fault injection) would
     poison the bar chart's scale (Float.max nan x = nan); drop them and
     only append a geo-mean bar when it is defined. *)
  let shown = List.filter (fun (_, v) -> Float.is_finite v && v > 0.0) entries in
  let geo_entry =
    match shown with
    | [] -> []
    | ok ->
        [
          ( "geo-mean",
            Descriptive.geometric_mean (Array.of_list (List.map snd ok)) );
        ]
  in
  let dropped =
    List.filter_map
      (fun (name, v) ->
        if Float.is_finite v && v > 0.0 then None
        else Some (Printf.sprintf "%s: n/a" name))
      entries
  in
  Printf.sprintf
    "Figure 5: reduction of profiling cost vs. the 35-observation baseline\n\n%s%s"
    (Report.Plot.bars ~title:"speed-up (x)" (shown @ geo_entry))
    (match dropped with
    | [] -> ""
    | d -> "\nundefined speed-up: " ^ String.concat ", " d)

(* --- Figure 6: error-vs-cost curves --- *)

let fig6_default = [ "adi"; "atax"; "correlation"; "gemver"; "jacobi"; "mvt" ]

let curve_points (c : Experiment.curve) =
  List.map (fun (p : Learner.eval_point) -> (p.cost_seconds, p.rmse)) c

let fig6 ?benchmarks ?fault ?events ~scale ~seed () =
  let sections =
    map_benches ~section:"fig6"
      (fun bench ->
        let name = Spapt.name bench in
        let pc = Runs.curves_for ?fault ?events bench scale ~seed in
        (* The paper plots the shared time window where all plans are
           active; clip each plan's curve at the fastest plan's end. *)
        let horizon =
          List.fold_left
            (fun acc curve ->
              match List.rev curve with
              | [] -> acc
              | (last : Learner.eval_point) :: _ ->
                  Float.min acc last.cost_seconds)
            infinity
            [ pc.all_observations; pc.one_observation;
              pc.variable_observations ]
        in
        let clip curve =
          List.filter (fun (x, _) -> x <= horizon) (curve_points curve)
        in
        Report.Plot.line ~logx:true
          ~title:(Printf.sprintf "Figure 6 (%s): RMSE vs evaluation time" name)
          ~xlabel:"evaluation time (simulated s)" ~ylabel:"RMSE (s)"
          [
            ("all observations (35)", clip pc.all_observations);
            ("one observation", clip pc.one_observation);
            ("variable observations (ours)", clip pc.variable_observations);
          ])
      (bench_list ~default:fig6_default benchmarks)
  in
  String.concat "\n" sections

(* --- Ablations --- *)

let ablation ?(bench = "gemver") ?fault ?events ~scale ~seed () =
  let b = Spapt.create bench in
  let dataset = Runs.dataset_for b scale ~seed in
  let base = scale.Scale.adaptive in
  let run_with tag settings =
    (* Variants run concurrently; they share [b]'s domain-safe store.
       Each repetition streams its events under its own run key, but its
       seeds come from the variant tag and the repetition, not from the
       key: test/oracle/ablation.expected pins the numbers they give. *)
    let problem = Adapter.problem_of b in
    let curve =
      Experiment.average_curves
        (List.init scale.Scale.reps (fun r ->
             let rep_seed = Rng.derive ~seed [ S tag; I r ] in
             let fault =
               Option.map
                 (fun spec ->
                   Fault.create spec
                     ~seed:(Rng.derive ~seed:rep_seed [ S "fault" ]))
                 fault
             in
             let events =
               Option.map
                 (fun sink ->
                   Events.stream sink (Runs.run_key ~bench scale tag r))
                 events
             in
             (Learner.run ?fault ?events ~exec_pool:(Runs.pool ()) problem
                dataset settings ~rng:(Rng.create ~seed:rep_seed))
               .curve))
    in
    let final =
      match List.rev curve with
      | [] -> nan
      | (p : Learner.eval_point) :: _ -> p.rmse
    in
    (tag, Experiment.min_rmse curve, final)
  in
  let variants =
    [
      ("alc (paper)", base);
      ("mackay", { base with strategy = Learner.Mackay });
      ("random", { base with strategy = Learner.Random_selection });
      ( "no revisits (fixed 1)",
        { base with plan = Learner.Fixed 1 } );
      ( "revisit cap 5",
        { base with plan = Learner.Adaptive { max_obs = 5 } } );
      ( "particles 40",
        { base with model = Altune_core.Surrogate.dynatree ~particles:40 () }
      );
      ( "particles 240",
        { base with model = Altune_core.Surrogate.dynatree ~particles:240 () }
      );
      ( "seed 2x",
        { base with n_init = 2 * base.n_init } );
      ("batch 8 (parallel)", { base with batch_size = 8 });
      ( "gp surrogate (O(n^3))",
        { base with model = Altune_gp.Gp.factory () } );
      ( "flat prior",
        { base with empirical_prior = false } );
    ]
  in
  let tags = Array.of_list (List.map fst variants) in
  let rows =
    Pool.map
      ~label:(fun i -> Printf.sprintf "ablation/%s" tags.(i))
      (Runs.pool ())
      (fun (tag, settings) ->
        let tag, mn, final = run_with tag settings in
        [ tag; Report.f3 mn; Report.f3 final ])
      variants
  in
  Printf.sprintf
    "Ablation on %s (scale=%s): design choices of the adaptive learner\n\n%s"
    bench scale.Scale.label
    (Report.Table.render
       ~headers:[ "variant"; "min RMSE"; "final RMSE" ]
       ~rows)
