(* Tests for special functions, distribution quantiles, online statistics,
   and model-accuracy metrics. *)

module Special = Altune_stats.Special
module Distributions = Altune_stats.Distributions
module Welford = Altune_stats.Welford
module Descriptive = Altune_stats.Descriptive
module Metrics = Altune_stats.Metrics
module Linalg = Altune_stats.Linalg
module Rng = Altune_prng.Rng

let test_log_gamma () =
  (* Gamma(n) = (n-1)! *)
  Alcotest.(check (float 1e-9)) "G(1)" 0.0 (Special.log_gamma 1.0);
  Alcotest.(check (float 1e-9)) "G(2)" 0.0 (Special.log_gamma 2.0);
  Alcotest.(check (float 1e-8)) "G(5)" (log 24.0) (Special.log_gamma 5.0);
  Alcotest.(check (float 1e-8))
    "G(0.5)"
    (log (sqrt Float.pi))
    (Special.log_gamma 0.5);
  Alcotest.(check (float 1e-6))
    "G(10.3) recurrence"
    (Special.log_gamma 11.3)
    (Special.log_gamma 10.3 +. log 10.3)

let test_erf () =
  Alcotest.(check (float 1e-6)) "erfc 0" 1.0 (Special.erfc 0.0);
  Alcotest.(check (float 1e-6)) "erfc 1" 0.1572992071 (Special.erfc 1.0);
  Alcotest.(check (float 1e-6)) "erfc -1" 1.8427007929 (Special.erfc (-1.0));
  Alcotest.(check (float 1e-6)) "erfc 2" 0.0046777350 (Special.erfc 2.0);
  Alcotest.(check (float 1e-9)) "erfc large" 0.0 (Special.erfc 10.0)

let test_incomplete_beta () =
  Alcotest.(check (float 1e-9)) "I_x(1,1)=x" 0.37
    (Special.incomplete_beta ~a:1.0 ~b:1.0 0.37);
  Alcotest.(check (float 1e-8))
    "I_0.5(2,2)" 0.5
    (Special.incomplete_beta ~a:2.0 ~b:2.0 0.5);
  (* I_x(2,3) has closed form 6x^2 - 8x^3 + 3x^4. *)
  let x = 0.3 in
  Alcotest.(check (float 1e-8))
    "I_0.3(2,3)"
    ((6.0 *. x *. x) -. (8.0 *. x *. x *. x) +. (3.0 *. x *. x *. x *. x))
    (Special.incomplete_beta ~a:2.0 ~b:3.0 x)

let test_normal_quantile () =
  Alcotest.(check (float 1e-6)) "median" 0.0
    (Distributions.normal_quantile 0.5);
  Alcotest.(check (float 1e-6))
    "97.5%" 1.959963985 (Distributions.normal_quantile 0.975);
  Alcotest.(check (float 1e-6))
    "2.5%" (-1.959963985)
    (Distributions.normal_quantile 0.025);
  Alcotest.(check (float 1e-5))
    "99.9%" 3.090232306 (Distributions.normal_quantile 0.999)

let test_normal_cdf_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-8))
        (Printf.sprintf "cdf(q(%g))" p)
        p
        (Distributions.normal_cdf (Distributions.normal_quantile p)))
    [ 0.001; 0.025; 0.2; 0.5; 0.8; 0.975; 0.999 ]

let test_student_t_quantile () =
  (* Reference values from standard t-tables (two-sided 95%). *)
  let cases =
    [ (1.0, 12.7062); (2.0, 4.30265); (5.0, 2.57058); (10.0, 2.22814);
      (30.0, 2.04227); (34.0, 2.03224) ]
  in
  List.iter
    (fun (df, expected) ->
      Alcotest.(check (float 1e-4))
        (Printf.sprintf "t(%g, 0.975)" df)
        expected
        (Distributions.student_t_quantile ~df 0.975))
    cases;
  Alcotest.(check (float 1e-9))
    "median" 0.0
    (Distributions.student_t_quantile ~df:7.0 0.5)

let test_student_t_cdf () =
  Alcotest.(check (float 1e-9)) "cdf 0" 0.5
    (Distributions.student_t_cdf ~df:5.0 0.0);
  Alcotest.(check (float 1e-6))
    "symmetry" 1.0
    (Distributions.student_t_cdf ~df:5.0 1.3
    +. Distributions.student_t_cdf ~df:5.0 (-1.3));
  (* t cdf approaches the normal cdf for large df. *)
  Alcotest.(check (float 1e-3))
    "large df" (Distributions.normal_cdf 1.0)
    (Distributions.student_t_cdf ~df:1000.0 1.0)

let test_welford_basic () =
  let t = Welford.of_array [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check int) "count" 8 (Welford.count t);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Welford.mean t);
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0) (Welford.variance t);
  Alcotest.(check (float 1e-9)) "sum" 40.0 (Welford.sum t)

let test_welford_empty_and_single () =
  Alcotest.(check int) "empty count" 0 (Welford.count Welford.empty);
  Alcotest.(check bool) "empty mean nan" true
    (Float.is_nan (Welford.mean Welford.empty));
  let s = Welford.singleton 3.0 in
  Alcotest.(check (float 1e-9)) "single mean" 3.0 (Welford.mean s);
  Alcotest.(check (float 1e-9)) "single variance" 0.0 (Welford.variance s);
  Alcotest.(check bool) "single ci infinite" true
    (Welford.ci_halfwidth s = infinity)

let test_welford_ci () =
  (* n=8, std known: CI halfwidth = t(7, .975) * s / sqrt(8). *)
  let t = Welford.of_array [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  let expected =
    Distributions.student_t_quantile ~df:7.0 0.975
    *. Welford.std t /. sqrt 8.0
  in
  Alcotest.(check (float 1e-9)) "halfwidth" expected (Welford.ci_halfwidth t)

let test_ci_coverage () =
  (* The 95% CI of a Gaussian sample should cover the true mean roughly 95%
     of the time; allow a generous band for a 1000-trial estimate. *)
  let rng = Rng.create ~seed:99 in
  let trials = 1000 in
  let covered = ref 0 in
  for _ = 1 to trials do
    let acc = ref Welford.empty in
    for _ = 1 to 10 do
      acc := Welford.add !acc (Rng.normal ~mu:3.0 ~sigma:2.0 rng)
    done;
    let m = Welford.mean !acc and h = Welford.ci_halfwidth !acc in
    if m -. h <= 3.0 && 3.0 <= m +. h then incr covered
  done;
  let rate = float_of_int !covered /. float_of_int trials in
  if rate < 0.92 || rate > 0.98 then
    Alcotest.failf "coverage %.3f outside [0.92, 0.98]" rate

let test_descriptive () =
  let a = [| 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 3.875 (Descriptive.mean a);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Descriptive.min a);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Descriptive.max a);
  Alcotest.(check (float 1e-9)) "median" 3.5 (Descriptive.median a);
  Alcotest.(check (float 1e-9)) "q0" 1.0 (Descriptive.quantile a 0.0);
  Alcotest.(check (float 1e-9)) "q1" 9.0 (Descriptive.quantile a 1.0);
  let m, mean, x = Descriptive.summary a in
  Alcotest.(check (float 1e-9)) "summary min" 1.0 m;
  Alcotest.(check (float 1e-9)) "summary mean" 3.875 mean;
  Alcotest.(check (float 1e-9)) "summary max" 9.0 x

let test_geometric_mean () =
  Alcotest.(check (float 1e-9))
    "gm" 4.0
    (Descriptive.geometric_mean [| 2.0; 8.0 |]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Descriptive.geometric_mean: non-positive entry")
    (fun () -> ignore (Descriptive.geometric_mean [| 1.0; 0.0 |]))

let test_metrics () =
  let predicted = [| 1.0; 2.0; 3.0 |] and observed = [| 1.0; 2.0; 5.0 |] in
  Alcotest.(check (float 1e-9))
    "rmse"
    (sqrt (4.0 /. 3.0))
    (Metrics.rmse ~predicted ~observed)

(* --- Linear algebra --- *)

let test_cholesky_known () =
  (* A = [[4,2],[2,3]] -> L = [[2,0],[1,sqrt 2]]. *)
  let l = Linalg.cholesky [| [| 4.0; 2.0 |]; [| 2.0; 3.0 |] |] in
  Alcotest.(check (float 1e-12)) "L00" 2.0 l.(0).(0);
  Alcotest.(check (float 1e-12)) "L10" 1.0 l.(1).(0);
  Alcotest.(check (float 1e-12)) "L11" (sqrt 2.0) l.(1).(1);
  Alcotest.(check (float 1e-12)) "upper zero" 0.0 l.(0).(1)

let test_cholesky_not_spd () =
  match Linalg.cholesky [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on indefinite matrix"

let test_cholesky_solve () =
  let a = [| [| 4.0; 2.0 |]; [| 2.0; 3.0 |] |] in
  let l = Linalg.cholesky a in
  let b = [| 10.0; 9.0 |] in
  let x = Linalg.cholesky_solve l b in
  let ax = Array.map (fun row -> Linalg.dot row x) a in
  Alcotest.(check (float 1e-9)) "Ax=b (0)" b.(0) ax.(0);
  Alcotest.(check (float 1e-9)) "Ax=b (1)" b.(1) ax.(1)

(* Random SPD matrix via A = M M^T + eps I. *)
let random_spd rng n =
  let m =
    Array.init n (fun _ -> Array.init n (fun _ -> Rng.normal rng))
  in
  Array.init n (fun i ->
      Array.init n (fun j ->
          let s = ref 0.0 in
          for k = 0 to n - 1 do
            s := !s +. (m.(i).(k) *. m.(j).(k))
          done;
          !s +. if i = j then 0.1 else 0.0))

let prop_cholesky_reconstructs =
  QCheck.Test.make ~name:"cholesky reconstructs A" ~count:100
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let a = random_spd rng n in
      let l = Linalg.cholesky a in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let s = ref 0.0 in
          for k = 0 to n - 1 do
            s := !s +. (l.(i).(k) *. l.(j).(k))
          done;
          if Float.abs (!s -. a.(i).(j)) > 1e-8 then ok := false
        done
      done;
      !ok)

let prop_cholesky_solve_correct =
  QCheck.Test.make ~name:"cholesky_solve solves Ax=b" ~count:100
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let a = random_spd rng n in
      let b = Array.init n (fun _ -> Rng.normal rng) in
      let x = Linalg.cholesky_solve (Linalg.cholesky a) b in
      let ax = Array.map (fun row -> Linalg.dot row x) a in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-6) ax b)

(* Property tests. *)

let float_array_gen =
  QCheck.(array_of_size Gen.(int_range 1 40) (float_bound_exclusive 100.0))

let prop_welford_matches_two_pass =
  QCheck.Test.make ~name:"welford matches two-pass statistics" ~count:300
    float_array_gen (fun a ->
      let w = Welford.of_array a in
      let ok_mean = Float.abs (Welford.mean w -. Descriptive.mean a) < 1e-7 in
      let ok_var =
        Float.abs (Welford.variance w -. Descriptive.variance a) < 1e-6
      in
      ok_mean && ok_var)

let prop_incomplete_beta_symmetry =
  QCheck.Test.make ~name:"incomplete beta symmetry" ~count:200
    QCheck.(
      triple (float_range 0.1 5.0) (float_range 0.1 5.0)
        (float_range 0.01 0.99))
    (fun (a, b, x) ->
      let lhs = Special.incomplete_beta ~a ~b x in
      let rhs = 1.0 -. Special.incomplete_beta ~a:b ~b:a (1.0 -. x) in
      Float.abs (lhs -. rhs) < 1e-7)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"array quantile is monotone in p" ~count:200
    QCheck.(triple float_array_gen (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (a, p1, p2) ->
      let lo = min p1 p2 and hi = max p1 p2 in
      Descriptive.quantile a lo <= Descriptive.quantile a hi +. 1e-9)

let prop_ci_shrinks =
  QCheck.Test.make ~name:"ci halfwidth shrinks as samples accumulate"
    ~count:50 QCheck.small_int (fun seed ->
      let rng = Rng.create ~seed in
      let acc = ref Welford.empty in
      for _ = 1 to 10 do
        acc := Welford.add !acc (Rng.normal rng)
      done;
      let h10 = Welford.ci_halfwidth !acc in
      for _ = 1 to 990 do
        acc := Welford.add !acc (Rng.normal rng)
      done;
      let h1000 = Welford.ci_halfwidth !acc in
      h1000 < h10)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_welford_matches_two_pass;
        prop_incomplete_beta_symmetry;
        prop_quantile_monotone;
        prop_ci_shrinks;
      ]
  in
  Alcotest.run "stats"
    [
      ( "special",
        [
          Alcotest.test_case "log_gamma" `Quick test_log_gamma;
          Alcotest.test_case "erf" `Quick test_erf;
          Alcotest.test_case "incomplete beta" `Quick test_incomplete_beta;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "normal quantile" `Quick test_normal_quantile;
          Alcotest.test_case "normal cdf roundtrip" `Quick
            test_normal_cdf_roundtrip;
          Alcotest.test_case "student-t quantile" `Quick
            test_student_t_quantile;
          Alcotest.test_case "student-t cdf" `Quick test_student_t_cdf;
        ] );
      ( "welford",
        [
          Alcotest.test_case "basic" `Quick test_welford_basic;
          Alcotest.test_case "empty and single" `Quick
            test_welford_empty_and_single;
          Alcotest.test_case "confidence interval" `Quick test_welford_ci;
          Alcotest.test_case "ci coverage" `Slow test_ci_coverage;
        ] );
      ( "descriptive",
        [
          Alcotest.test_case "summary stats" `Quick test_descriptive;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
        ] );
      ("metrics", [ Alcotest.test_case "rmse mae r2" `Quick test_metrics ]);
      ( "linalg",
        [
          Alcotest.test_case "cholesky known" `Quick test_cholesky_known;
          Alcotest.test_case "cholesky not spd" `Quick test_cholesky_not_spd;
          Alcotest.test_case "cholesky solve" `Quick test_cholesky_solve;
          QCheck_alcotest.to_alcotest prop_cholesky_reconstructs;
          QCheck_alcotest.to_alcotest prop_cholesky_solve_correct;
        ] );
      ("properties", qsuite);
    ]
