(* Tests for the dynamic-tree surrogate: leaf-model math, tree invariants,
   ensemble learning behaviour, and the active-learning scores. *)

module Rng = Altune_prng.Rng
module Leaf_model = Altune_dynatree.Leaf_model
module Tree = Altune_dynatree.Tree
module Dynatree = Altune_dynatree.Dynatree
module Welford = Altune_stats.Welford
module Pool = Altune_exec.Pool

let prior = Leaf_model.default_prior

(* --- Leaf model --- *)

let test_suff () =
  let s =
    List.fold_left Leaf_model.add_suff Leaf_model.empty_suff [ 1.0; 2.0; 3.0 ]
  in
  Alcotest.(check int) "n" 3 s.n;
  Alcotest.(check (float 1e-12)) "sum" 6.0 s.sum;
  Alcotest.(check (float 1e-12)) "sumsq" 14.0 s.sumsq;
  let a = List.fold_left Leaf_model.add_suff Leaf_model.empty_suff [ 1.0 ] in
  let b =
    List.fold_left Leaf_model.add_suff Leaf_model.empty_suff [ 2.0; 3.0 ]
  in
  Alcotest.(check (float 1e-12))
    "merge" s.sumsq (Leaf_model.merge_suff a b).sumsq

let test_posterior_shrinks_to_data () =
  (* With many observations the posterior mean approaches the sample mean
     and the predictive variance approaches the sample variance. *)
  let rng = Rng.create ~seed:5 in
  let acc = ref Leaf_model.empty_suff in
  let w = ref Welford.empty in
  for _ = 1 to 5000 do
    let y = Rng.normal ~mu:2.0 ~sigma:0.5 rng in
    acc := Leaf_model.add_suff !acc y;
    w := Welford.add !w y
  done;
  let p = Leaf_model.predict prior !acc in
  Alcotest.(check (float 0.01)) "mean" (Welford.mean !w) p.mean;
  Alcotest.(check (float 0.02)) "variance" (Welford.variance !w) p.variance

let test_log_marginal_decomposes () =
  (* p(y1, y2) = p(y1) p(y2 | y1): the chain rule must hold exactly. *)
  let s0 = Leaf_model.empty_suff in
  let s1 = Leaf_model.add_suff s0 1.3 in
  let joint = Leaf_model.log_marginal prior (Leaf_model.add_suff s1 0.7) in
  let chain =
    Leaf_model.log_marginal prior s1
    +. Leaf_model.log_predictive_density prior s1 0.7
  in
  Alcotest.(check (float 1e-9)) "chain rule" chain joint

let test_variance_reduction_positive_and_decreasing () =
  let noisy =
    List.fold_left Leaf_model.add_suff Leaf_model.empty_suff
      [ 1.0; 5.0; 2.0; 6.0 ]
  in
  let r_few = Leaf_model.expected_variance_reduction prior noisy in
  Alcotest.(check bool) "positive" true (r_few > 0.0);
  (* Many additional consistent observations make further samples less
     valuable. *)
  let many = ref noisy in
  for _ = 1 to 200 do
    many := Leaf_model.add_suff !many 3.5
  done;
  let r_many = Leaf_model.expected_variance_reduction prior !many in
  Alcotest.(check bool)
    (Printf.sprintf "reduction shrinks (%g < %g)" r_many r_few)
    true (r_many < r_few)

(* --- Tree particle --- *)

let make_tree_with rng data =
  let store = Tree.make_store ~dim:1 in
  let t = ref (Tree.singleton Tree.default_params store []) in
  List.iter
    (fun (x, y) ->
      let i = Tree.append store [| x |] y in
      t := fst (Tree.update ~rng !t i))
    data;
  (!t, store)

let step_data rng n =
  List.init n (fun _ ->
      let x = Rng.uniform rng in
      let y =
        (if x < 0.5 then 1.0 else 4.0) +. Rng.normal ~sigma:0.05 rng
      in
      (x, y))

let test_tree_counts_observations () =
  let rng = Rng.create ~seed:11 in
  let t, store = make_tree_with rng (step_data rng 100) in
  Alcotest.(check int) "store size" 100 (Tree.store_size store);
  Alcotest.(check int) "all observations in tree" 100 (Tree.n_observations t)

let test_tree_grows_on_structure () =
  let rng = Rng.create ~seed:13 in
  let t, _ = make_tree_with rng (step_data rng 200) in
  Alcotest.(check bool) "split found" true (Tree.n_leaves t >= 2)

let test_tree_ref_counts_partition () =
  let rng = Rng.create ~seed:17 in
  let t, _ = make_tree_with rng (step_data rng 150) in
  let refs = Array.init 64 (fun i -> [| float_of_int i /. 64.0 |]) in
  let counts = Tree.leaf_ref_counts t refs in
  let total = Hashtbl.fold (fun _ c acc -> c + acc) counts 0 in
  Alcotest.(check int) "counts partition the reference set" 64 total

let test_tree_predict_separates_step () =
  let rng = Rng.create ~seed:19 in
  let t, _ = make_tree_with rng (step_data rng 300) in
  let low = (Tree.predict t [| 0.2 |]).mean in
  let high = (Tree.predict t [| 0.8 |]).mean in
  Alcotest.(check bool)
    (Printf.sprintf "step recovered (%.2f vs %.2f)" low high)
    true
    (low < 2.0 && high > 3.0)

(* --- Ensemble --- *)

let learn_ensemble ?(n = 400) ~seed f noise =
  let rng = Rng.create ~seed in
  let m = Dynatree.create ~rng 1 in
  for _ = 1 to n do
    let x = [| Rng.uniform rng |] in
    Dynatree.observe m x (f x +. Rng.normal ~sigma:(noise x) rng)
  done;
  m

let step f_low f_high x = if x.(0) < 0.5 then f_low else f_high

let test_ensemble_learns_step () =
  let m = learn_ensemble ~seed:23 (step 1.0 3.0) (fun _ -> 0.05) in
  let p_low = Dynatree.predict m [| 0.25 |] in
  let p_high = Dynatree.predict m [| 0.75 |] in
  Alcotest.(check (float 0.15)) "low region" 1.0 p_low.mean;
  Alcotest.(check (float 0.15)) "high region" 3.0 p_high.mean

let test_ensemble_variance_tracks_noise () =
  (* Heteroskedastic data: predictive variance must be larger where the
     noise is larger — the signal the sequential-analysis loop uses. *)
  let noise x = if x.(0) < 0.5 then 0.02 else 0.5 in
  let m = learn_ensemble ~seed:29 (step 1.0 3.0) noise in
  let v_quiet = Dynatree.predictive_variance m [| 0.25 |] in
  let v_noisy = Dynatree.predictive_variance m [| 0.75 |] in
  Alcotest.(check bool)
    (Printf.sprintf "variance ordering (%.4f < %.4f)" v_quiet v_noisy)
    true
    (v_quiet < v_noisy)

let test_ensemble_counts () =
  let m = learn_ensemble ~seed:31 ~n:50 (step 0.0 1.0) (fun _ -> 0.1) in
  Alcotest.(check int) "observations" 50 (Dynatree.n_observations m);
  Alcotest.(check bool) "leaves grow" true (Dynatree.mean_n_leaves m > 1.0)

let test_ensemble_determinism () =
  let run () =
    let m = learn_ensemble ~seed:37 (step 1.0 3.0) (fun _ -> 0.1) in
    (Dynatree.predict m [| 0.3 |]).mean
  in
  Alcotest.(check (float 0.0)) "same seed, same model" (run ()) (run ())

let test_ensemble_improves_with_data () =
  let rmse m =
    let err = ref 0.0 in
    let k = 50 in
    for i = 0 to k - 1 do
      let x = [| (float_of_int i +. 0.5) /. float_of_int k |] in
      let d = (Dynatree.predict m x).mean -. step 1.0 3.0 x in
      err := !err +. (d *. d)
    done;
    sqrt (!err /. float_of_int k)
  in
  let small = learn_ensemble ~seed:41 ~n:20 (step 1.0 3.0) (fun _ -> 0.3) in
  let large = learn_ensemble ~seed:41 ~n:500 (step 1.0 3.0) (fun _ -> 0.3) in
  Alcotest.(check bool)
    (Printf.sprintf "more data, lower error (%.3f < %.3f)" (rmse large)
       (rmse small))
    true
    (rmse large < rmse small)

let test_alc_prefers_noisy_region () =
  let noise x = if x.(0) < 0.5 then 0.02 else 0.6 in
  let m = learn_ensemble ~seed:43 (step 1.0 3.0) noise in
  let refs = Array.init 100 (fun i -> [| float_of_int i /. 100.0 |]) in
  let scores =
    Dynatree.alc_scores m ~candidates:[| [| 0.25 |]; [| 0.75 |] |] ~refs
  in
  Alcotest.(check bool)
    (Printf.sprintf "noisy candidate wins (%.6f < %.6f)" scores.(0)
       scores.(1))
    true
    (scores.(0) < scores.(1))

let test_alc_nonnegative () =
  let m = learn_ensemble ~seed:47 (step 1.0 3.0) (fun _ -> 0.2) in
  let refs = Array.init 50 (fun i -> [| float_of_int i /. 50.0 |]) in
  let candidates = Array.init 20 (fun i -> [| float_of_int i /. 20.0 |]) in
  let scores = Dynatree.alc_scores m ~candidates ~refs in
  Array.iter
    (fun s ->
      if s < 0.0 || not (Float.is_finite s) then
        Alcotest.failf "invalid ALC score %g" s)
    scores

let test_average_variance_decreases () =
  let rng = Rng.create ~seed:53 in
  let m = Dynatree.create ~rng 1 in
  let refs = Array.init 50 (fun i -> [| float_of_int i /. 50.0 |]) in
  let observe_n n =
    for _ = 1 to n do
      let x = [| Rng.uniform rng |] in
      Dynatree.observe m x (step 1.0 3.0 x +. Rng.normal ~sigma:0.1 rng)
    done
  in
  observe_n 30;
  let v30 = Dynatree.average_variance m ~refs in
  observe_n 470;
  let v500 = Dynatree.average_variance m ~refs in
  Alcotest.(check bool)
    (Printf.sprintf "variance falls (%.4f < %.4f)" v500 v30)
    true (v500 < v30)

(* --- Properties --- *)

let prop_prediction_finite =
  QCheck.Test.make ~name:"predictions stay finite" ~count:20
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 60) (pair (float_bound_exclusive 1.0) (float_range (-5.0) 5.0))))
    (fun (seed, data) ->
      let rng = Rng.create ~seed in
      let params = { Dynatree.default_params with n_particles = 30 } in
      let m = Dynatree.create ~params ~rng 1 in
      List.iter (fun (x, y) -> Dynatree.observe m [| x |] y) data;
      List.for_all
        (fun q ->
          let p = Dynatree.predict m [| q |] in
          Float.is_finite p.mean && Float.is_finite p.variance
          && p.variance >= 0.0)
        [ 0.0; 0.25; 0.5; 0.75; 1.0 ])

(* The incremental ALC caches, the incremental tree-shape stats, and the
   pool-parallel sweeps all replace a from-scratch computation; each must
   agree with its slow oracle to EXACT float equality, not a tolerance —
   any drift breaks the byte-identity guarantees downstream (kill-and-
   resume, jobs-invariant transcripts). *)

let grid2 n f = Array.init n (fun i -> f (float_of_int i /. float_of_int n))

let prop_alc_incremental_matches_full =
  QCheck.Test.make ~name:"incremental ALC = full recompute (exact)" ~count:15
    QCheck.(pair small_int (int_range 20 120))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let params = { Dynatree.default_params with n_particles = 40 } in
      let m = Dynatree.create ~params ~rng 2 in
      let refs = grid2 32 (fun u -> [| u; Float.rem (u *. 7.0) 1.0 |]) in
      let candidates = grid2 12 (fun u -> [| 1.0 -. u; u |]) in
      let ok = ref true in
      for k = 1 to n do
        let x = [| Rng.uniform rng; Rng.uniform rng |] in
        Dynatree.observe m x
          ((if x.(0) < 0.5 then 1.0 else 3.0) +. Rng.normal ~sigma:0.2 rng);
        (* Check at irregular intervals so the caches are maintained
           across many observes between registrations, not just once. *)
        if k mod 7 = 0 || k = n then begin
          let fast = Dynatree.alc_scores m ~candidates ~refs in
          let slow = Dynatree.alc_scores_full m ~candidates ~refs in
          if fast <> slow then ok := false
        end
      done;
      !ok)

let prop_tree_stats_incremental =
  QCheck.Test.make ~name:"incremental stats = full traversal" ~count:30
    QCheck.(pair small_int (int_range 1 120))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let store = Tree.make_store ~dim:2 in
      let t = ref (Tree.singleton Tree.default_params store []) in
      let ok = ref true in
      for _ = 1 to n do
        let x = [| Rng.uniform rng; Rng.uniform rng |] in
        let i = Tree.append store x (Rng.normal rng) in
        t := fst (Tree.update ~rng !t i);
        if Tree.stats !t <> Tree.recompute_stats !t then ok := false
      done;
      !ok)

let test_parallel_paths_bit_identical () =
  (* Size the ensemble and the candidate batch at the parallel gates, so
     that both sweeps fan out, and compare the sequential run against a
     4-domain pool: predictions and ALC scores must match bit for bit
     (OCaml [=] on floats is exact here). *)
  let n_particles = Dynatree.reweight_par_min_particles in
  let n_candidates =
    (Dynatree.alc_par_min_work + n_particles - 1) / n_particles
  in
  let run pool =
    let rng = Rng.create ~seed:61 in
    let params = { Dynatree.default_params with n_particles } in
    let m = Dynatree.create ~params ~rng 2 in
    Dynatree.set_pool m pool;
    let data = Rng.create ~seed:67 in
    for _ = 1 to 150 do
      let x = [| Rng.uniform data; Rng.uniform data |] in
      Dynatree.observe m x
        ((if x.(0) < 0.5 then 1.0 else 3.0) +. Rng.normal ~sigma:0.2 data)
    done;
    let refs = grid2 40 (fun u -> [| u; 1.0 -. u |]) in
    let candidates = grid2 n_candidates (fun u -> [| u; u |]) in
    let scores = Dynatree.alc_scores m ~candidates ~refs in
    let p = Dynatree.predict m [| 0.3; 0.7 |] in
    (Array.to_list scores, p.mean, p.variance)
  in
  (* Count the fanned-out tasks by label, so that the test cannot pass
     with both sweeps running sequentially. *)
  let reweight = Atomic.make 0 and alc = Atomic.make 0 in
  let on_event = function
    | Pool.Task_started { label; _ } ->
        if String.starts_with ~prefix:"reweight " label then Atomic.incr reweight
        else if String.starts_with ~prefix:"alc " label then Atomic.incr alc
    | Pool.Task_finished _ -> ()
  in
  let seq = run None in
  let par = Pool.with_pool ~on_event ~jobs:4 (fun pool -> run (Some pool)) in
  Alcotest.(check bool) "reweighting fanned out" true (Atomic.get reweight > 0);
  Alcotest.(check bool) "ALC scoring fanned out" true (Atomic.get alc > 0);
  Alcotest.(check bool) "jobs 1 = jobs 4, bit for bit" true (seq = par)

let prop_tree_observation_conservation =
  QCheck.Test.make ~name:"trees never lose observations" ~count:30
    QCheck.(pair small_int (int_range 1 80))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let store = Tree.make_store ~dim:2 in
      let t = ref (Tree.singleton Tree.default_params store []) in
      for _ = 1 to n do
        let x = [| Rng.uniform rng; Rng.uniform rng |] in
        let i = Tree.append store x (Rng.normal rng) in
        t := fst (Tree.update ~rng !t i)
      done;
      Tree.n_observations !t = n)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_prediction_finite;
        prop_tree_observation_conservation;
        prop_alc_incremental_matches_full;
        prop_tree_stats_incremental;
      ]
  in
  Alcotest.run "dynatree"
    [
      ( "leaf model",
        [
          Alcotest.test_case "sufficient statistics" `Quick test_suff;
          Alcotest.test_case "posterior shrinks to data" `Quick
            test_posterior_shrinks_to_data;
          Alcotest.test_case "marginal chain rule" `Quick
            test_log_marginal_decomposes;
          Alcotest.test_case "variance reduction" `Quick
            test_variance_reduction_positive_and_decreasing;
        ] );
      ( "tree",
        [
          Alcotest.test_case "counts observations" `Quick
            test_tree_counts_observations;
          Alcotest.test_case "grows on structure" `Quick
            test_tree_grows_on_structure;
          Alcotest.test_case "ref counts partition" `Quick
            test_tree_ref_counts_partition;
          Alcotest.test_case "predict separates step" `Quick
            test_tree_predict_separates_step;
        ] );
      ( "ensemble",
        [
          Alcotest.test_case "learns step function" `Quick
            test_ensemble_learns_step;
          Alcotest.test_case "variance tracks noise" `Quick
            test_ensemble_variance_tracks_noise;
          Alcotest.test_case "counts" `Quick test_ensemble_counts;
          Alcotest.test_case "deterministic" `Quick test_ensemble_determinism;
          Alcotest.test_case "improves with data" `Slow
            test_ensemble_improves_with_data;
          Alcotest.test_case "average variance decreases" `Slow
            test_average_variance_decreases;
        ] );
      ( "active scores",
        [
          Alcotest.test_case "alc prefers noisy region" `Quick
            test_alc_prefers_noisy_region;
          Alcotest.test_case "alc non-negative" `Quick test_alc_nonnegative;
          Alcotest.test_case "parallel paths bit-identical" `Quick
            test_parallel_paths_bit_identical;
        ] );
      ("properties", qsuite);
    ]
