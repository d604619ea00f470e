(* Tests for the SPAPT benchmark suite: every recipe must be total over
   its configuration space, transformation recipes must preserve kernel
   semantics (checked through the reference interpreter at small problem
   sizes), the measurement interface must be deterministic where it
   claims to be, and the evaluation store must never change a value —
   whether it is warmed through a pool or evicts. *)

module Spapt = Altune_spapt.Spapt
module Kernels = Altune_spapt.Kernels
module Ast = Altune_kernellang.Ast
module Interp = Altune_kernellang.Interp
module Verify = Altune_kernellang.Verify
module Rng = Altune_prng.Rng
module Welford = Altune_stats.Welford
module Machine = Altune_machine.Machine
module Pool = Altune_exec.Pool
module Memo = Altune_exec.Memo
module Metrics = Altune_obs.Metrics

let all_names = Kernels.names

(* Small problem sizes for interpreter-based semantics checks. *)
let small_overrides = function
  | "adi" -> [ ("N", 7); ("T", 2) ]
  | "atax" | "bicgkernel" | "dgemv3" | "gemver" | "mvt" ->
      [ ("N", 9); ("T", 2) ]
  | "correlation" -> [ ("M", 8); ("N", 7); ("T", 1) ]
  | "hessian" | "jacobi" -> [ ("N", 8); ("T", 2) ]
  | "lu" -> [ ("N", 7); ("T", 1) ]
  | "mm" -> [ ("N", 7); ("T", 1) ]
  | other -> Alcotest.failf "unknown benchmark %s" other

let array_init name i =
  let h = Hashtbl.hash (name, i) land 0xFFFF in
  (float_of_int h /. 65536.0) +. 0.5

let outputs kernel name =
  Interp.run_kernel ~param_overrides:(small_overrides name) ~array_init
    kernel

let approx_equal a b =
  List.for_all2
    (fun (na, va) (nb, vb) ->
      na = nb
      && Array.for_all2
           (fun x y ->
             Float.abs (x -. y)
             <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)))
           va vb)
    a b

let test_catalog () =
  Alcotest.(check int) "11 benchmarks" 11 (List.length all_names);
  List.iter
    (fun name ->
      let b = Spapt.create name in
      Alcotest.(check string) "name" name (Spapt.name b);
      Alcotest.(check bool) "space non-trivial" true
        (Spapt.space_size b > 1000.0);
      Alcotest.(check int) "dim = #knobs" (List.length (Spapt.knobs b))
        (Spapt.dim b);
      match Ast.validate (Spapt.kernel b) with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "%s: invalid kernel: %s" name
            (Format.asprintf "%a" Ast.pp_validation_error e))
    all_names

(* The step kinds, matched exhaustively: a kind added to [Verify.step]
   does not compile here until it is named, and then fails the test
   below until some recipe emits it. *)
let step_kind : Verify.step -> string = function
  | Unroll _ -> "unroll"
  | Tile_nest _ -> "tile"
  | Unroll_and_jam _ -> "unroll-and-jam"

let test_recipes_emit_every_step_kind () =
  let rng = Rng.create ~seed:83 in
  let seen = Hashtbl.create 4 in
  List.iter
    (fun name ->
      let b = Spapt.create name in
      for _ = 1 to 20 do
        List.iter
          (fun step -> Hashtbl.replace seen (step_kind step) ())
          (Spapt.recipe b (Spapt.random_config b rng))
      done)
    all_names;
  Alcotest.(check (list string))
    "kinds" [ "tile"; "unroll"; "unroll-and-jam" ]
    (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []))

let test_default_config_is_identity () =
  (* Config all-zeros = every knob off: the transformed kernel must equal
     the original semantically. *)
  List.iter
    (fun name ->
      let b = Spapt.create name in
      let t = Spapt.transformed b (Array.make (Spapt.dim b) 0) in
      if not (approx_equal (outputs (Spapt.kernel b) name) (outputs t name))
      then Alcotest.failf "%s: default config changed semantics" name)
    all_names

let test_random_configs_total_and_sound () =
  (* Every random configuration must transform successfully, validate, and
     preserve semantics at small sizes. *)
  let rng = Rng.create ~seed:77 in
  List.iter
    (fun name ->
      let b = Spapt.create name in
      let reference = outputs (Spapt.kernel b) name in
      for _ = 1 to 6 do
        let c = Spapt.random_config b rng in
        let t =
          try Spapt.transformed b c
          with Invalid_argument msg ->
            Alcotest.failf "%s %s: %s" name
              (String.concat ";"
                 (List.map string_of_int (Array.to_list c)))
              msg
        in
        (match Ast.validate t with
        | Ok () -> ()
        | Error e ->
            Alcotest.failf "%s: transformed invalid: %s" name
              (Format.asprintf "%a" Ast.pp_validation_error e));
        if not (approx_equal reference (outputs t name)) then
          Alcotest.failf "%s %s: semantics changed" name
            (String.concat ";" (List.map string_of_int (Array.to_list c)))
      done)
    all_names

let test_true_runtime_properties () =
  let rng = Rng.create ~seed:5 in
  List.iter
    (fun name ->
      let b = Spapt.create name in
      let base = Array.make (Spapt.dim b) 0 in
      let r = Spapt.true_runtime b base in
      if not (Float.is_finite r) || r <= 0.0 then
        Alcotest.failf "%s: bad base runtime %g" name r;
      Alcotest.(check (float 0.0)) "memoized deterministic" r
        (Spapt.true_runtime b base);
      let c = Spapt.random_config b rng in
      let rc = Spapt.true_runtime b c in
      if not (Float.is_finite rc) || rc <= 0.0 then
        Alcotest.failf "%s: bad runtime %g" name rc)
    all_names

let test_compile_seconds_grow_with_unrolling () =
  let b = Spapt.create "mm" in
  let base = [| 0; 0; 0; 0; 0; 0 |] in
  let unrolled = [| 0; 0; 0; 0; 0; 31 |] in
  Alcotest.(check bool) "positive" true (Spapt.compile_seconds b base > 0.0);
  Alcotest.(check bool) "unrolled costs more" true
    (Spapt.compile_seconds b unrolled > Spapt.compile_seconds b base)

let test_noise_sigma_field () =
  let b = Spapt.create "correlation" in
  let rng = Rng.create ~seed:13 in
  let sigmas =
    Array.init 300 (fun _ -> Spapt.noise_sigma b (Spapt.random_config b rng))
  in
  Array.iter
    (fun s ->
      if s <= 0.0 || not (Float.is_finite s) then
        Alcotest.failf "bad sigma %g" s)
    sigmas;
  (* Heteroskedastic: the spread across configurations is wide. *)
  let mn = Array.fold_left Float.min sigmas.(0) sigmas in
  let mx = Array.fold_left Float.max sigmas.(0) sigmas in
  Alcotest.(check bool)
    (Printf.sprintf "wide spread (%.4f .. %.4f)" mn mx)
    true
    (mx /. mn > 5.0);
  (* Deterministic per configuration. *)
  let c = Spapt.random_config b rng in
  Alcotest.(check (float 0.0)) "deterministic" (Spapt.noise_sigma b c)
    (Spapt.noise_sigma b c)

let test_measurement_converges () =
  let b = Spapt.create "mvt" in
  let rng = Rng.create ~seed:21 in
  let c = Array.make (Spapt.dim b) 0 in
  let truth = Spapt.true_runtime b c in
  let acc = ref Welford.empty in
  for run_index = 1 to 3000 do
    acc := Welford.add !acc (Spapt.measure b ~rng ~run_index c)
  done;
  let rel = Float.abs (Welford.mean !acc -. truth) /. truth in
  if rel > 0.02 then
    Alcotest.failf "mean of 3000 samples off by %.1f%%" (100.0 *. rel)

let test_features_normalized () =
  let b = Spapt.create "gemver" in
  let rng = Rng.create ~seed:41 in
  let dim = Spapt.dim b in
  let acc = Array.make dim Welford.empty in
  for _ = 1 to 4000 do
    let f = Spapt.features b (Spapt.random_config b rng) in
    Array.iteri (fun i v -> acc.(i) <- Welford.add acc.(i) v) f
  done;
  Array.iteri
    (fun i w ->
      if Float.abs (Welford.mean w) > 0.1 then
        Alcotest.failf "feature %d mean %.3f (should be ~0)" i
          (Welford.mean w);
      if Float.abs (Welford.std w -. 1.0) > 0.1 then
        Alcotest.failf "feature %d std %.3f (should be ~1)" i (Welford.std w))
    acc

(* Every value of every knob of every kernel maps to the closed-form
   feature, bit for bit: scaled and centred against the uniform
   distribution over the knob's values, 0.0 for a one-value knob. *)
let test_features_closed_form () =
  List.iter
    (fun name ->
      let b = Spapt.create name in
      let cards =
        Array.of_list (List.map Spapt.knob_cardinality (Spapt.knobs b))
      in
      let closed i raw =
        let c = float_of_int cards.(i) in
        if cards.(i) = 1 then 0.0
        else
          (float_of_int raw -. ((c -. 1.0) /. 2.0))
          /. sqrt (((c *. c) -. 1.0) /. 12.0)
      in
      Array.iteri
        (fun i card ->
          for raw = 0 to card - 1 do
            let config = Array.make (Array.length cards) 0 in
            config.(i) <- raw;
            Array.iteri
              (fun j f ->
                let want = closed j config.(j) in
                if Int64.bits_of_float f <> Int64.bits_of_float want then
                  Alcotest.failf "%s knob %d at %d: feature %d is %h, want %h"
                    name i raw j f want)
              (Spapt.features b config)
          done)
        cards)
    all_names

let test_invalid_config_rejected () =
  let b = Spapt.create "mm" in
  Alcotest.(check bool) "short config invalid" false
    (Spapt.config_valid b [| 0; 0 |]);
  Alcotest.(check bool) "out-of-range invalid" false
    (Spapt.config_valid b [| 99; 0; 0; 0; 0; 0 |]);
  let rejects what config =
    match Spapt.features b config with
    | exception Invalid_argument _ -> ()
    | _ ->
        Alcotest.failf "features of a %s config: expected Invalid_argument"
          what
  in
  rejects "short" [| 0; 0 |];
  rejects "negative" [| 0; -1; 0; 0; 0; 0 |];
  rejects "out-of-range" [| 99; 0; 0; 0; 0; 0 |];
  match Spapt.transformed b [| 99; 0; 0; 0; 0; 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_kernels_lint_clean () =
  (* Every benchmark kernel must pass the static verifier without errors,
     at both default and interpreter-sized parameters. *)
  let module Lint = Altune_kernellang.Lint in
  List.iter
    (fun name ->
      let b = Spapt.create name in
      List.iter
        (fun overrides ->
          match Lint.errors (Lint.lint ?param_overrides:overrides (Spapt.kernel b)) with
          | [] -> ()
          | errs ->
              Alcotest.failf "%s: %d lint error(s); first: %s" name
                (List.length errs)
                (Lint.diagnostic_to_string (List.hd errs)))
        [ None; Some (Spapt.small_params b) ])
    all_names

let test_recipes_audit_sound () =
  (* Spot-check the full soundness audit (legality, lint, dependence
     re-analysis, access counts, differential execution) on a random
     configuration of a few benchmarks; `dune build @check` sweeps all. *)
  let module Verify = Altune_kernellang.Verify in
  let rng = Rng.create ~seed:91 in
  List.iter
    (fun name ->
      let b = Spapt.create name in
      let c = Spapt.random_config b rng in
      let v = Spapt.verify_config b c in
      if not (Verify.ok v) then
        Alcotest.failf "%s: %s" name (Verify.verdict_to_string v))
    [ "mm"; "hessian"; "atax" ]

(* Property: recipes are total and validated over the whole space. *)
let prop_recipe_total =
  QCheck.Test.make ~name:"recipes total over random configurations" ~count:80
    QCheck.(pair (int_bound 10) small_int)
    (fun (bench_idx, seed) ->
      let name = List.nth all_names bench_idx in
      let b = Spapt.create name in
      let rng = Rng.create ~seed in
      let c = Spapt.random_config b rng in
      match Spapt.transformed b c with
      | t -> ( match Ast.validate t with Ok () -> true | Error _ -> false)
      | exception _ -> false)

(* --- The evaluation store is inert ---------------------------------- *)

let spapt_pair b c = (Spapt.true_runtime b c, Spapt.compile_seconds b c)

(* A tiny bounded store of evaluations priced from scratch, outside
   Spapt's own store, must still produce Spapt's values: eviction only
   ever costs recomputation, never a wrong answer. *)
let test_cache_eviction_correct () =
  let b = Spapt.create "lu" in
  let tiny : (int array, float * float) Memo.t =
    Memo.create ~capacity:4 ~name:"test.spapt.tiny" ()
  in
  let evictions = Metrics.counter "test.spapt.tiny.evictions" in
  let e0 = Metrics.counter_value evictions in
  let priced c =
    let e = Machine.evaluate Machine.default (Spapt.transformed b c) in
    (e.Machine.runtime, e.Machine.compile)
  in
  let rng = Rng.create ~seed:13 in
  let configs = List.init 30 (fun _ -> Spapt.random_config b rng) in
  (* Two passes so the second pass re-reads keys the first evicted. *)
  for _ = 1 to 2 do
    List.iter
      (fun c ->
        let rt, ct = Memo.find_or_compute tiny c (fun () -> priced c) in
        let rt', ct' = spapt_pair b c in
        Alcotest.(check (float 0.0)) "evicting store agrees: runtime" rt' rt;
        Alcotest.(check (float 0.0)) "evicting store agrees: compile" ct' ct)
      configs
  done;
  Alcotest.(check bool) "bounded" true (Memo.length tiny <= 4);
  Alcotest.(check bool) "evicted" true (Metrics.counter_value evictions > e0)

(* Batched preparation at jobs 1 vs 4: warming the store through the
   pool must leave every evaluation bit-identical to an instance that
   never prepared.  At jobs 4 the read-back is all store hits; at jobs 1
   [prepare] does nothing. *)
let test_prepare_jobs_bit_identity () =
  let name = "mvt" in
  let rng = Rng.create ~seed:11 in
  let reference = Spapt.create name in
  let configs = List.init 40 (fun _ -> Spapt.random_config reference rng) in
  let baseline = List.map (spapt_pair reference) configs in
  let misses = Metrics.counter "spapt.cache.misses" in
  List.iter
    (fun jobs ->
      let b = Spapt.create name in
      let pool = Pool.create ~jobs () in
      let m0 = Metrics.counter_value misses in
      Spapt.prepare ~pool b configs;
      let m1 = Metrics.counter_value misses in
      let got = List.map (spapt_pair b) configs in
      let m2 = Metrics.counter_value misses in
      Pool.shutdown pool;
      if jobs = 1 then
        Alcotest.(check int) "jobs 1: prepare evaluates nothing" 0 (m1 - m0)
      else
        Alcotest.(check int)
          (Printf.sprintf "jobs %d: read-back is all hits" jobs)
          0 (m2 - m1);
      List.iter2
        (fun (rt0, cs0) (rt1, cs1) ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "runtime bit-identical at jobs=%d" jobs)
            rt0 rt1;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "compile bit-identical at jobs=%d" jobs)
            cs0 cs1)
        baseline got)
    [ 1; 4 ]

(* What an evaluation-cache miss allocates: transformation, analysis
   and pricing of 110 seed-7 configurations per kernel, each on a fresh
   instance so that every distinct configuration misses, in minor-heap
   words per miss.  The bound is the allocation measured when it was set
   (about 250 KB per miss on these draws) plus about 10%; a change that
   allocates more on purpose moves it and says so. *)
let test_miss_allocation () =
  let bound_kb = 275.0 in
  let misses = Metrics.counter "spapt.cache.misses" in
  let words = ref 0.0 and missed = ref 0 in
  List.iter
    (fun name ->
      let b = Spapt.create name in
      let rng = Rng.create ~seed:7 in
      let configs = List.init 110 (fun _ -> Spapt.random_config b rng) in
      let m0 = Metrics.counter_value misses in
      let w0 = Gc.minor_words () in
      List.iter
        (fun c -> ignore (Sys.opaque_identity (spapt_pair b c)))
        configs;
      words := !words +. (Gc.minor_words () -. w0);
      missed := !missed + (Metrics.counter_value misses - m0))
    all_names;
  let kb = !words *. 8.0 /. 1024.0 /. float_of_int !missed in
  Printf.printf "%d misses, %.1f KB per miss (bound %.0f KB)\n" !missed kb
    bound_kb;
  if kb > bound_kb then
    Alcotest.failf "a miss allocates %.1f KB, above the %.0f KB bound" kb
      bound_kb

let () =
  Alcotest.run "spapt"
    [
      ( "catalog",
        [
          Alcotest.test_case "11 benchmarks well-formed" `Quick test_catalog;
          Alcotest.test_case "invalid configs rejected" `Quick
            test_invalid_config_rejected;
          Alcotest.test_case "recipes emit every step kind" `Quick
            test_recipes_emit_every_step_kind;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "default config is identity" `Quick
            test_default_config_is_identity;
          Alcotest.test_case "random configs sound" `Slow
            test_random_configs_total_and_sound;
          Alcotest.test_case "kernels lint clean" `Quick
            test_kernels_lint_clean;
          Alcotest.test_case "recipes audit sound" `Slow
            test_recipes_audit_sound;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "true runtime" `Quick
            test_true_runtime_properties;
          Alcotest.test_case "compile time grows" `Quick
            test_compile_seconds_grow_with_unrolling;
          Alcotest.test_case "noise field" `Quick test_noise_sigma_field;
          Alcotest.test_case "measurements converge" `Quick
            test_measurement_converges;
          Alcotest.test_case "features normalized" `Quick
            test_features_normalized;
          Alcotest.test_case "features closed form" `Quick
            test_features_closed_form;
        ] );
      ( "inertness",
        [
          Alcotest.test_case "cache eviction only recomputes" `Quick
            test_cache_eviction_correct;
          Alcotest.test_case "prepare jobs 1 vs 4 bit-identity" `Quick
            test_prepare_jobs_bit_identity;
          Alcotest.test_case "miss allocation" `Quick test_miss_allocation;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_recipe_total ]);
    ]
