(* Tests for the active-learning core: cost accounting, dataset handling,
   the learning loop's bookkeeping, and the Table 1 comparison logic.
   The learner is exercised against a synthetic problem with a known
   response surface so behaviour is checkable without the full SPAPT
   stack. *)

module Problem = Altune_core.Problem
module Cost = Altune_core.Cost
module Dataset = Altune_core.Dataset
module Learner = Altune_core.Learner
module Experiment = Altune_core.Experiment
module Rng = Altune_prng.Rng

(* Synthetic problem: 2 integer knobs in [0, 19], response is a smooth
   bowl plus heteroskedastic noise (noisy in one corner). *)
let synthetic ?(noise = 0.05) () =
  let dim = 2 in
  let truth c =
    let x = float_of_int c.(0) and y = float_of_int c.(1) in
    1.0
    +. (0.01 *. ((x -. 12.0) ** 2.0))
    +. (0.02 *. ((y -. 5.0) ** 2.0))
  in
  let sigma c = if c.(0) < 5 && c.(1) < 5 then 4.0 *. noise else noise in
  {
    Problem.name = "synthetic";
    dim;
    space_size = 400.0;
    random_config = (fun rng -> [| Rng.int rng 20; Rng.int rng 20 |]);
    features =
      (fun c ->
        Array.map (fun v -> (float_of_int v -. 9.5) /. 5.766) c);
    measure =
      (fun ~rng ~run_index c ->
        ignore run_index;
        Float.max 1e-6 (truth c *. (1.0 +. Rng.normal ~sigma:(sigma c) rng)));
    compile_seconds = (fun _ -> 0.05);
    prepare = ignore;
  }

let tiny_settings =
  {
    Learner.scaled_settings with
    n_init = 4;
    n_obs_init = 10;
    n_candidates = 20;
    n_max = 80;
    eval_every = 5;
    ref_size = 50;
    model = Altune_core.Surrogate.dynatree ~particles:40 ();
  }

let make_dataset ?(seed = 3) problem =
  Dataset.generate problem ~rng:(Rng.create ~seed) ~n_configs:300
    ~test_fraction:0.25 ~n_obs:10

(* --- Cost --- *)

let test_cost_runs () =
  let c = Cost.create () in
  Cost.charge_run c 1.5;
  Cost.charge_run c 2.5;
  Alcotest.(check (float 1e-9)) "run seconds" 4.0 (Cost.run_seconds c);
  Alcotest.(check int) "runs" 2 (Cost.runs c);
  Alcotest.(check (float 1e-9)) "total" 4.0 (Cost.total_seconds c)

let test_cost_compile_dedupe () =
  let c = Cost.create () in
  Cost.charge_compile c ~key:"a" 0.5;
  Cost.charge_compile c ~key:"a" 0.5;
  Cost.charge_compile c ~key:"b" 0.25;
  Alcotest.(check (float 1e-9)) "compile seconds" 0.75
    (Cost.compile_seconds c);
  Alcotest.(check int) "distinct compiles" 2
    (List.length (Cost.snapshot c).snap_compiled)

let test_cost_negative_rejected () =
  let c = Cost.create () in
  Alcotest.check_raises "negative run"
    (Invalid_argument "Cost.charge_run: negative duration") (fun () ->
      Cost.charge_run c (-1.0))

(* --- Dataset --- *)

let test_dataset_shapes () =
  let problem = synthetic () in
  let d = make_dataset problem in
  Alcotest.(check int) "test size" 75 (Array.length d.test_configs);
  Alcotest.(check int) "train size" 225 (Array.length d.train_configs);
  Alcotest.(check int) "labels" 75 (Array.length d.test_means);
  Array.iter
    (fun m ->
      if m <= 0.0 || not (Float.is_finite m) then
        Alcotest.failf "bad test mean %g" m)
    d.test_means

let test_dataset_distinct () =
  let problem = synthetic () in
  let d = make_dataset problem in
  let keys = Hashtbl.create 512 in
  Array.iter
    (fun c -> Hashtbl.replace keys (Problem.key c) ())
    (Array.append d.train_configs d.test_configs);
  Alcotest.(check int) "all distinct" 300 (Hashtbl.length keys)

let test_dataset_exhaustion () =
  let problem = synthetic () in
  match
    Dataset.generate problem ~rng:(Rng.create ~seed:1) ~n_configs:1000
      ~test_fraction:0.5 ~n_obs:2
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected exhaustion error (space has 400 configs)"

(* --- Learner bookkeeping --- *)

let test_fixed_plan_run_counts () =
  let problem = synthetic () in
  let d = make_dataset problem in
  let settings = { tiny_settings with plan = Learner.Fixed 7 } in
  let o = Learner.run problem d settings ~rng:(Rng.create ~seed:5) in
  (* Every iteration (seed or loop) measures exactly 7 times. *)
  Alcotest.(check int) "runs" (80 * 7) o.total_runs;
  Alcotest.(check int) "examples" 80 o.distinct_examples

let test_adaptive_plan_run_counts () =
  let problem = synthetic () in
  let d = make_dataset problem in
  let o = Learner.run problem d tiny_settings ~rng:(Rng.create ~seed:5) in
  (* Seeds take n_obs_init each; every loop iteration takes exactly one. *)
  Alcotest.(check int) "runs" ((4 * 10) + (80 - 4)) o.total_runs;
  Alcotest.(check bool) "examples bounded" true (o.distinct_examples <= 80)

let test_curve_shape () =
  let problem = synthetic () in
  let d = make_dataset problem in
  let o = Learner.run problem d tiny_settings ~rng:(Rng.create ~seed:7) in
  let costs = List.map (fun (p : Learner.eval_point) -> p.cost_seconds) o.curve in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "cost nondecreasing" true (nondecreasing costs);
  Alcotest.(check bool) "has evaluation points" true
    (List.length o.curve >= 2);
  List.iter
    (fun (p : Learner.eval_point) ->
      if not (Float.is_finite p.rmse) || p.rmse < 0.0 then
        Alcotest.failf "bad rmse %g" p.rmse)
    o.curve

let test_learning_reduces_error () =
  let problem = synthetic ~noise:0.02 () in
  let d = make_dataset problem in
  let settings = { tiny_settings with n_max = 200 } in
  let o = Learner.run problem d settings ~rng:(Rng.create ~seed:11) in
  let first = (List.hd o.curve).rmse in
  let best = Experiment.min_rmse o.curve in
  Alcotest.(check bool)
    (Printf.sprintf "error drops (%.4f -> %.4f)" first best)
    true (best < first)

let test_prediction_quality () =
  let problem = synthetic ~noise:0.02 () in
  let d = make_dataset problem in
  let settings = { tiny_settings with n_max = 250 } in
  let o = Learner.run problem d settings ~rng:(Rng.create ~seed:13) in
  (* The bowl's shape must be recovered: centre cheaper than corner. *)
  let centre = o.predict [| 12; 5 |] in
  let corner = o.predict [| 0; 19 |] in
  Alcotest.(check bool)
    (Printf.sprintf "bowl recovered (%.3f < %.3f)" centre corner)
    true (centre < corner)

let test_determinism () =
  let problem = synthetic () in
  let d = make_dataset problem in
  let run () =
    (Learner.run problem d tiny_settings ~rng:(Rng.create ~seed:17))
      .final_rmse
  in
  Alcotest.(check (float 0.0)) "same seed same outcome" (run ()) (run ())

let test_batch_selection () =
  let problem = synthetic () in
  let d = make_dataset problem in
  let batched = { tiny_settings with batch_size = 5 } in
  let o = Learner.run problem d batched ~rng:(Rng.create ~seed:23) in
  (* Batching changes which configurations are chosen, not how many
     observations are paid for. *)
  Alcotest.(check int) "runs unchanged" ((4 * 10) + (80 - 4)) o.total_runs;
  Alcotest.(check bool) "still learns" true (Float.is_finite o.final_rmse)

let test_stop_cost_budget () =
  let problem = synthetic () in
  let d = make_dataset problem in
  (* The mandatory seed phase costs ~60-130s here, so pick a budget above
     it; the check runs between batches, so overshoot is bounded by one
     batch's measurements (~a few seconds). *)
  let budget = 200.0 in
  let settings =
    { tiny_settings with n_max = 5000; budget = Some budget }
  in
  let o = Learner.run problem d settings ~rng:(Rng.create ~seed:29) in
  Alcotest.(check bool)
    (Printf.sprintf "cost %.1f near budget" o.total_cost)
    true
    (o.total_cost >= budget && o.total_cost < budget +. 30.0)

let test_settings_validation () =
  let problem = synthetic () in
  let d = make_dataset problem in
  let invalid settings =
    match Learner.run problem d settings ~rng:(Rng.create ~seed:1) with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid { tiny_settings with n_init = 0 };
  invalid { tiny_settings with n_max = 2; n_init = 5 };
  invalid { tiny_settings with plan = Learner.Fixed 0 };
  invalid { tiny_settings with eval_every = 0 };
  invalid { tiny_settings with batch_size = 0 }

(* --- Stepping --- *)

module Events = Altune_obs.Events
module Fault = Altune_exec.Fault

let bits = Int64.bits_of_float

let check_same_outcome what (d : Dataset.t) (a : Learner.outcome)
    (b : Learner.outcome) =
  let point (p : Learner.eval_point) =
    [
      Int64.of_int p.iteration;
      Int64.of_int p.examples;
      Int64.of_int p.observations;
      bits p.cost_seconds;
      bits p.rmse;
    ]
  in
  let predictions (o : Learner.outcome) =
    Array.map (fun c -> bits (o.predict c)) d.test_configs
  in
  Alcotest.(check (list (list int64)))
    (what ^ ": curve") (List.map point a.curve) (List.map point b.curve);
  Alcotest.(check int64) (what ^ ": cost") (bits a.total_cost)
    (bits b.total_cost);
  Alcotest.(check int) (what ^ ": runs") a.total_runs b.total_runs;
  Alcotest.(check int)
    (what ^ ": examples") a.distinct_examples b.distinct_examples;
  Alcotest.(check (array int64))
    (what ^ ": test-panel predictions") (predictions a) (predictions b)

(* Starting a run and stepping it in increments of 1, 3 and 7, at batch
   sizes 1 and 2, with and without injected faults, gives [run]'s
   outcome and event stream bit for bit; each step pauses at the first
   batch boundary at least its increment past the last pause; and
   resuming a fresh run from the state at any pause gives the same
   outcome again. *)
let test_step_matches_run () =
  let problem = synthetic () in
  let d = make_dataset problem in
  let fault_spec =
    match Fault.of_string "crash=0.05,timeout=0.02,corrupt=0.01" with
    | Ok sp -> sp
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (batch_size, faults) ->
      let settings = { tiny_settings with n_max = 40; batch_size } in
      let fault () =
        if faults then Some (Fault.create fault_spec ~seed:99) else None
      in
      let rng () = Rng.create ~seed:37 in
      let full, full_events =
        Events.with_memory (fun sink ->
            Learner.run ?fault:(fault ()) ~events:(Events.stream sink "r")
              problem d settings ~rng:(rng ()))
      in
      List.iter
        (fun increment ->
          let what =
            Printf.sprintf "batch %d, faults %b, steps of %d" batch_size faults
              increment
          in
          let (stepped, pauses), events =
            Events.with_memory (fun sink ->
                let l =
                  Learner.start ?fault:(fault ())
                    ~events:(Events.stream sink "r") problem d settings
                    ~rng:(rng ())
                in
                let rec go pauses =
                  match Learner.step l ~iterations:increment with
                  | Some o -> (o, List.rev pauses)
                  | None -> go (Learner.state l :: pauses)
                in
                go [])
          in
          check_same_outcome what d full stepped;
          Alcotest.(check (list string)) (what ^ ": events") full_events events;
          ignore
            (List.fold_left
               (fun last (st : Learner.state) ->
                 let gap = st.st_iteration - last in
                 Alcotest.(check bool)
                   (Printf.sprintf "%s: pause at %d" what st.st_iteration)
                   true
                   (gap >= increment && gap < increment + batch_size);
                 st.st_iteration)
               settings.n_init pauses);
          List.iter
            (fun (st : Learner.state) ->
              check_same_outcome
                (Printf.sprintf "%s, resumed at %d" what st.st_iteration)
                d full
                (Learner.run ?fault:(fault ()) ~resume:st problem d settings
                   ~rng:(rng ())))
            pauses)
        [ 1; 3; 7 ])
    [ (1, false); (2, false); (1, true); (2, true) ]

(* --- Search --- *)

module Search = Altune_core.Search

let bowl_space = Search.space_of_cardinalities [| 20; 20 |]

let bowl c =
  let x = float_of_int c.(0) and y = float_of_int c.(1) in
  ((x -. 13.0) ** 2.0) +. (2.0 *. ((y -. 6.0) ** 2.0))

let test_search_random () =
  let r =
    Search.minimize ~rng:(Rng.create ~seed:1) bowl_space ~predict:bowl
      (Search.Random_sampling 2000)
  in
  Alcotest.(check int) "evaluations" 2000 r.evaluations;
  Alcotest.(check bool) "near optimum" true (r.predicted < 3.0)

let test_search_hill_climbing_exact () =
  let r =
    Search.minimize ~rng:(Rng.create ~seed:2) bowl_space ~predict:bowl
      (Search.Hill_climbing { restarts = 3; max_steps = 100 })
  in
  (* The bowl is unimodal per knob: steepest descent finds the optimum. *)
  Alcotest.(check (float 1e-9)) "exact optimum" 0.0 r.predicted;
  Alcotest.(check bool) "at (13, 6)" true (r.best = [| 13; 6 |])

let test_search_beats_random_on_budget () =
  (* At equal evaluation budgets, hill climbing beats random sampling on a
     smooth surface. *)
  let budget_random =
    Search.minimize ~rng:(Rng.create ~seed:4) bowl_space ~predict:bowl
      (Search.Random_sampling 300)
  in
  let hc =
    Search.minimize ~rng:(Rng.create ~seed:4) bowl_space ~predict:bowl
      (Search.Hill_climbing { restarts = 2; max_steps = 20 })
  in
  Alcotest.(check bool)
    (Printf.sprintf "hc %.2f <= random %.2f" hc.predicted
       budget_random.predicted)
    true
    (hc.predicted <= budget_random.predicted)

let test_search_validation () =
  let invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () ->
      Search.minimize ~rng:(Rng.create ~seed:1)
        (Search.space_of_cardinalities [||])
        ~predict:(fun _ -> 0.0)
        (Search.Random_sampling 10))

(* --- Experiment utilities --- *)

let point i cost rmse =
  {
    Learner.iteration = i;
    examples = i;
    observations = i;
    cost_seconds = cost;
    rmse;
  }

let test_average_curves () =
  let a = [ point 1 10.0 1.0; point 2 20.0 0.5 ] in
  let b = [ point 1 30.0 3.0; point 2 40.0 1.5 ] in
  match Experiment.average_curves [ a; b ] with
  | [ p1; p2 ] ->
      Alcotest.(check (float 1e-9)) "cost 1" 20.0 p1.cost_seconds;
      Alcotest.(check (float 1e-9)) "rmse 1" 2.0 p1.rmse;
      Alcotest.(check (float 1e-9)) "cost 2" 30.0 p2.cost_seconds;
      Alcotest.(check (float 1e-9)) "rmse 2" 1.0 p2.rmse
  | _ -> Alcotest.fail "wrong length"

let test_cost_to_reach () =
  let c = [ point 1 10.0 1.0; point 2 20.0 0.6; point 3 30.0 0.4 ] in
  Alcotest.(check (option (float 1e-9))) "reached" (Some 20.0)
    (Experiment.cost_to_reach c 0.7);
  Alcotest.(check (option (float 1e-9))) "never" None
    (Experiment.cost_to_reach c 0.1)

let test_compare_curves () =
  (* Baseline reaches 0.5 at cost 100; ours reaches 0.4 at cost 10.
     Lowest common = 0.5; ours reaches 0.5 at cost 8. *)
  let baseline = [ point 1 50.0 0.9; point 2 100.0 0.5 ] in
  let ours = [ point 1 8.0 0.5; point 2 10.0 0.4 ] in
  let cmp = Experiment.compare_curves ~baseline ~ours in
  Alcotest.(check (float 1e-9)) "common level" 0.5 cmp.lowest_common_rmse;
  Alcotest.(check (float 1e-9)) "baseline cost" 100.0 cmp.cost_baseline;
  Alcotest.(check (float 1e-9)) "ours cost" 8.0 cmp.cost_ours;
  Alcotest.(check (float 1e-9)) "speedup" 12.5 cmp.speedup

let test_adaptive_beats_fixed_on_cost () =
  (* The headline claim at miniature scale: same error level, much less
     cost.  Uses the quiet synthetic problem where one observation is
     informative. *)
  let problem = synthetic ~noise:0.02 () in
  let d = make_dataset problem in
  let adaptive =
    Learner.run problem d tiny_settings ~rng:(Rng.create ~seed:19)
  in
  let fixed =
    Learner.run problem d
      { tiny_settings with plan = Learner.Fixed 10 }
      ~rng:(Rng.create ~seed:19)
  in
  let cmp =
    Experiment.compare_curves ~baseline:fixed.curve ~ours:adaptive.curve
  in
  Alcotest.(check bool)
    (Printf.sprintf "speedup %.2fx > 1.5x" cmp.speedup)
    true (cmp.speedup > 1.5)

let () =
  Alcotest.run "core"
    [
      ( "cost",
        [
          Alcotest.test_case "run accumulation" `Quick test_cost_runs;
          Alcotest.test_case "compile dedupe" `Quick
            test_cost_compile_dedupe;
          Alcotest.test_case "negative rejected" `Quick
            test_cost_negative_rejected;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "shapes" `Quick test_dataset_shapes;
          Alcotest.test_case "distinct" `Quick test_dataset_distinct;
          Alcotest.test_case "exhaustion" `Quick test_dataset_exhaustion;
        ] );
      ( "learner",
        [
          Alcotest.test_case "fixed plan run counts" `Quick
            test_fixed_plan_run_counts;
          Alcotest.test_case "adaptive plan run counts" `Quick
            test_adaptive_plan_run_counts;
          Alcotest.test_case "curve shape" `Quick test_curve_shape;
          Alcotest.test_case "learning reduces error" `Quick
            test_learning_reduces_error;
          Alcotest.test_case "prediction quality" `Slow
            test_prediction_quality;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "batch selection" `Quick test_batch_selection;
          Alcotest.test_case "stop on cost budget" `Quick
            test_stop_cost_budget;
          Alcotest.test_case "settings validation" `Quick
            test_settings_validation;
          Alcotest.test_case "stepping matches one run" `Quick
            test_step_matches_run;
        ] );
      ( "search",
        [
          Alcotest.test_case "random sampling" `Quick test_search_random;
          Alcotest.test_case "hill climbing exact" `Quick
            test_search_hill_climbing_exact;
          Alcotest.test_case "beats random" `Quick
            test_search_beats_random_on_budget;
          Alcotest.test_case "validation" `Quick test_search_validation;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "average curves" `Quick test_average_curves;
          Alcotest.test_case "cost to reach" `Quick test_cost_to_reach;
          Alcotest.test_case "compare curves" `Quick test_compare_curves;
          Alcotest.test_case "adaptive beats fixed" `Slow
            test_adaptive_beats_fixed_on_cost;
        ] );
    ]
