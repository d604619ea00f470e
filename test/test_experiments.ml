(* Integration tests: every experiment driver runs end-to-end at a tiny
   scale and produces the expected report structure. *)

module Drivers = Altune_experiments.Drivers
module Scale = Altune_experiments.Scale
module Runs = Altune_experiments.Runs
module Adapter = Altune_experiments.Adapter
module Spapt = Altune_spapt.Spapt
module Learner = Altune_core.Learner
module Rng = Altune_prng.Rng
module Events = Altune_obs.Events

let tiny : Scale.t =
  {
    label = "tiny";
    n_configs = 250;
    test_fraction = 0.25;
    n_obs = 10;
    reps = 1;
    adaptive =
      {
        Learner.scaled_settings with
        n_init = 4;
        n_obs_init = 10;
        n_candidates = 15;
        n_max = 50;
        eval_every = 10;
        ref_size = 40;
        model = Altune_core.Surrogate.dynatree ~particles:25 ();
      };
    table2_configs = 30;
    fig1_max_grid = 6;
  }

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else go (i + 1)
  in
  go 0

let test_adapter () =
  let b = Spapt.create "lu" in
  let p = Adapter.problem_of b in
  Alcotest.(check string) "name" "lu" p.name;
  Alcotest.(check int) "dim" (Spapt.dim b) p.dim;
  let rng = Rng.create ~seed:1 in
  let c = p.random_config rng in
  Alcotest.(check bool) "valid configs" true (Spapt.config_valid b c);
  Alcotest.(check int) "feature dim" p.dim (Array.length (p.features c));
  let y = p.measure ~rng ~run_index:1 c in
  Alcotest.(check bool) "measure positive" true (y > 0.0)

let test_runs_cached () =
  Runs.clear_cache ();
  let b = Spapt.create "hessian" in
  let t0 = Unix.gettimeofday () in
  let c1 = Runs.curves_for b tiny ~seed:1 in
  let cold = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  let c2 = Runs.curves_for b tiny ~seed:1 in
  let warm = Unix.gettimeofday () -. t1 in
  Alcotest.(check bool) "identical result" true (c1 = c2);
  Alcotest.(check bool)
    (Printf.sprintf "cache faster (%.3fs -> %.3fs)" cold warm)
    true
    (warm < cold /. 10.0)

let test_table1 () =
  let s = Drivers.table1 ~benchmarks:[ "hessian"; "lu" ] ~scale:tiny ~seed:1 () in
  Alcotest.(check bool) "has benchmarks" true
    (contains s "hessian" && contains s "lu");
  Alcotest.(check bool) "has geomean" true (contains s "geometric mean");
  Alcotest.(check bool) "has speed-up column" true (contains s "speed-up")

let test_table2 () =
  let s = Drivers.table2 ~benchmarks:[ "lu" ] ~scale:tiny ~seed:1 () in
  Alcotest.(check bool) "has benchmark" true (contains s "lu");
  Alcotest.(check bool) "has CI columns" true (contains s "35s CI/m mean")

let test_fig1 () =
  let s = Drivers.fig1 ~scale:tiny ~seed:1 () in
  Alcotest.(check bool) "three panels" true
    (contains s "(a)" && contains s "(b)" && contains s "(c)");
  Alcotest.(check bool) "executions summary" true (contains s "Executions")

let test_fig2 () =
  let s = Drivers.fig2 ~scale:tiny ~seed:1 () in
  Alcotest.(check bool) "adi sweep" true (contains s "adi");
  Alcotest.(check bool) "axis" true (contains s "unroll factor")

let test_fig5 () =
  let s = Drivers.fig5 ~benchmarks:[ "hessian"; "lu" ] ~scale:tiny ~seed:1 () in
  Alcotest.(check bool) "bars" true (contains s "#");
  Alcotest.(check bool) "geomean bar" true (contains s "geo-mean")

let test_fig6 () =
  let s = Drivers.fig6 ~benchmarks:[ "lu" ] ~scale:tiny ~seed:1 () in
  Alcotest.(check bool) "three series" true
    (contains s "all observations" && contains s "one observation"
    && contains s "variable observations")

let test_ablation () =
  let s = Drivers.ablation ~bench:"lu" ~scale:tiny ~seed:1 () in
  Alcotest.(check bool) "variants listed" true
    (contains s "alc (paper)" && contains s "mackay"
    && contains s "random")

let test_ablation_streams () =
  (* Every repetition of every variant streams under its own run key, so
     the event file is the same at any job count. *)
  let run jobs =
    Runs.set_jobs jobs;
    snd
      (Events.with_memory (fun () ->
           Drivers.ablation ~bench:"lu" ~scale:tiny ~seed:1 ()))
  in
  let seq, par =
    Fun.protect
      ~finally:(fun () -> Runs.set_jobs 1)
      (fun () ->
        let seq = run 1 in
        (seq, run 4))
  in
  Alcotest.(check (list string)) "identical at jobs 1 and 4" seq par;
  let starts = Hashtbl.create 16 in
  List.iter
    (fun line ->
      match Events.of_lines [ line ] with
      | Ok { events = [ { run; kind; _ } ]; _ } ->
          let n = Option.value ~default:0 (Hashtbl.find_opt starts run) in
          Hashtbl.replace starts run
            (match kind with Events.Start _ -> n + 1 | _ -> n)
      | Ok _ | Error _ -> Alcotest.failf "unexpected event line %s" line)
    seq;
  Alcotest.(check int) "one run key per variant" 11 (Hashtbl.length starts);
  Hashtbl.iter
    (fun run n -> Alcotest.(check int) (run ^ " starts once") 1 n)
    starts

let () =
  Alcotest.run "experiments"
    [
      ( "glue",
        [
          Alcotest.test_case "adapter" `Quick test_adapter;
          Alcotest.test_case "runs cached" `Slow test_runs_cached;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "table1" `Slow test_table1;
          Alcotest.test_case "table2" `Slow test_table2;
          Alcotest.test_case "fig1" `Slow test_fig1;
          Alcotest.test_case "fig2" `Quick test_fig2;
          Alcotest.test_case "fig5" `Slow test_fig5;
          Alcotest.test_case "fig6" `Slow test_fig6;
          Alcotest.test_case "ablation" `Slow test_ablation;
          Alcotest.test_case "ablation streams" `Slow test_ablation_streams;
        ] );
    ]
