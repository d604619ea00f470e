(* Tests for the deterministic splittable PRNG: reproducibility, stream
   independence, bound respect, and distribution moments. *)

module Rng = Altune_prng.Rng

let test_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 1000 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_copy () =
  let a = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    ignore (Rng.bits64 a)
  done;
  let b = Rng.copy a in
  for _ = 1 to 100 do
    Alcotest.(check int64) "copy tracks parent" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_copy_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.copy a in
  ignore (Rng.bits64 b);
  ignore (Rng.bits64 b);
  let a1 = Rng.bits64 a in
  let a2 = Rng.bits64 a in
  (* Advancing the copy must not perturb the parent: the parent still
     produces the same two first values the copy did. *)
  let c = Rng.copy (Rng.create ~seed:7) in
  Alcotest.(check int64) "first" (Rng.bits64 c) a1;
  Alcotest.(check int64) "second" (Rng.bits64 c) a2

let test_split_diverges () =
  let a = Rng.create ~seed:3 in
  let b = Rng.split a in
  let collisions = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bits64 a = Rng.bits64 b then incr collisions
  done;
  Alcotest.(check int) "no collisions" 0 !collisions

let test_uniform_range () =
  let t = Rng.create ~seed:11 in
  for _ = 1 to 10_000 do
    let x = Rng.uniform t in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "uniform out of range: %g" x
  done

let test_uniform_moments () =
  let t = Rng.create ~seed:13 in
  let n = 200_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.uniform t in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check (float 0.01)) "mean 1/2" 0.5 mean;
  Alcotest.(check (float 0.01)) "variance 1/12" (1.0 /. 12.0) var

let moments f n =
  let t = Rng.create ~seed:17 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = f t in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  (mean, (!sumsq /. float_of_int n) -. (mean *. mean))

let test_normal_moments () =
  let mean, var = moments (fun t -> Rng.normal t) 200_000 in
  Alcotest.(check (float 0.02)) "mean 0" 0.0 mean;
  Alcotest.(check (float 0.03)) "variance 1" 1.0 var

let test_normal_location_scale () =
  let mean, var = moments (fun t -> Rng.normal ~mu:5.0 ~sigma:2.0 t) 200_000 in
  Alcotest.(check (float 0.05)) "mean 5" 5.0 mean;
  Alcotest.(check (float 0.15)) "variance 4" 4.0 var

let test_lognormal_positive () =
  let t = Rng.create ~seed:29 in
  for _ = 1 to 10_000 do
    if Rng.lognormal t <= 0.0 then Alcotest.fail "lognormal not positive"
  done

let test_bernoulli_rate () =
  let t = Rng.create ~seed:31 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli t 0.3 then incr hits
  done;
  Alcotest.(check (float 0.01))
    "rate" 0.3
    (float_of_int !hits /. float_of_int n)

let test_invalid_args () =
  let t = Rng.create ~seed:1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int t 0));
  Alcotest.check_raises "swr k>n"
    (Invalid_argument "Rng.sample_without_replacement: k > n") (fun () ->
      ignore (Rng.sample_without_replacement t 4 3))

(* Property tests. *)

let prop_int_bound =
  QCheck.Test.make ~name:"int stays within bound" ~count:500
    QCheck.(pair (int_bound 1000) small_int)
    (fun (bound, seed) ->
      let bound = bound + 1 in
      let t = Rng.create ~seed in
      let x = Rng.int t bound in
      x >= 0 && x < bound)

let prop_shuffle_multiset =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair (array_of_size Gen.(int_range 0 50) small_int) small_int)
    (fun (a, seed) ->
      let t = Rng.create ~seed in
      let b = Array.copy a in
      Rng.shuffle t b;
      let sa = Array.copy a and sb = Array.copy b in
      Array.sort compare sa;
      Array.sort compare sb;
      sa = sb)

let prop_sample_without_replacement =
  QCheck.Test.make ~name:"sample_without_replacement distinct and in-range"
    ~count:300
    QCheck.(triple small_int (int_bound 60) (int_bound 60))
    (fun (seed, a, b) ->
      let n = max a b + 1 and k = min a b in
      let t = Rng.create ~seed in
      let s = Rng.sample_without_replacement t k n in
      let module IS = Set.Make (Int) in
      let set = IS.of_list (Array.to_list s) in
      Array.length s = k
      && IS.cardinal set = k
      && IS.for_all (fun i -> i >= 0 && i < n) set)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_int_bound;
        prop_shuffle_multiset;
        prop_sample_without_replacement;
      ]
  in
  Alcotest.run "prng"
    [
      ( "stream",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy tracks parent" `Quick test_copy;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "split diverges" `Quick test_split_diverges;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "uniform range" `Quick test_uniform_range;
          Alcotest.test_case "uniform moments" `Quick test_uniform_moments;
          Alcotest.test_case "normal moments" `Quick test_normal_moments;
          Alcotest.test_case "normal location-scale" `Quick
            test_normal_location_scale;
          Alcotest.test_case "lognormal positive" `Quick
            test_lognormal_positive;
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
        ] );
      ( "validation",
        [ Alcotest.test_case "invalid arguments" `Quick test_invalid_args ] );
      ("properties", qsuite);
    ]
