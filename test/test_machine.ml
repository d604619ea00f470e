(* Tests for the analytic machine model: basic sanity, and the qualitative
   response shapes the autotuning experiments rely on (tiling benefit,
   unroll overhead reduction, spill cliffs, compile-time growth). *)

module Parser = Altune_kernellang.Parser
module Transform = Altune_kernellang.Transform
module Analysis = Altune_kernellang.Analysis
module Machine = Altune_machine.Machine
module Ast = Altune_kernellang.Ast
module Spapt = Altune_spapt.Spapt
module Rng = Altune_prng.Rng

let mm n =
  Parser.parse_kernel
    (Printf.sprintf
       {|
kernel mm(N = %d) {
  array A[N][N];
  array B[N][N];
  array C[N][N];
  for i = 0 to N - 1 {
    for j = 0 to N - 1 {
      for k = 0 to N - 1 {
        C[i][j] = C[i][j] + A[i][k] * B[k][j];
      }
    }
  }
}
|}
       n)

let vec_scale n =
  Parser.parse_kernel
    (Printf.sprintf
       {|
kernel vs(N = %d) {
  array X[N];
  array Y[N];
  for i = 0 to N - 1 {
    Y[i] = 2.5 * X[i];
  }
}
|}
       n)

let cfg = Machine.default
let rt k = Machine.runtime_seconds cfg (Analysis.analyze k)

let ok = function
  | Ok k -> k
  | Error e -> Alcotest.failf "transform failed: %s" (Transform.error_to_string e)

let test_positive_finite () =
  List.iter
    (fun k ->
      let t = rt k in
      if not (Float.is_finite t) || t <= 0.0 then
        Alcotest.failf "runtime not positive finite: %g" t)
    [ mm 8; mm 64; mm 256; vec_scale 1024 ]

let test_monotone_in_problem_size () =
  Alcotest.(check bool) "mm grows with N" true (rt (mm 128) < rt (mm 256));
  Alcotest.(check bool)
    "vector grows with N" true
    (rt (vec_scale 1024) < rt (vec_scale 1_000_000))

let test_breakdown_adds_up () =
  let b = Machine.estimate cfg (Analysis.analyze (mm 64)) in
  let parts =
    b.compute_cycles +. b.memory_cycles +. b.overhead_cycles
    +. b.spill_penalty_cycles +. b.icache_penalty_cycles
  in
  Alcotest.(check bool)
    "components close to total" true
    (Float.abs (parts -. b.total_cycles) /. b.total_cycles < 0.01);
  Alcotest.(check (float 1e-12))
    "seconds = cycles / frequency"
    (b.total_cycles /. (cfg.frequency_ghz *. 1e9))
    b.seconds

let test_unroll_reduces_overhead () =
  (* Overhead-dominated loop: unrolling must strictly reduce the overhead
     component. *)
  let k = vec_scale 100_000 in
  let base = Machine.estimate cfg (Analysis.analyze k) in
  let unrolled =
    Machine.estimate cfg
      (Analysis.analyze (ok (Transform.unroll ~index:"i" ~factor:4 k)))
  in
  Alcotest.(check bool)
    "overhead shrinks" true
    (unrolled.overhead_cycles < 0.5 *. base.overhead_cycles);
  Alcotest.(check bool)
    "total improves" true
    (unrolled.seconds < base.seconds)

let test_extreme_unroll_spills () =
  let k = vec_scale 100_000 in
  let at factor =
    Machine.estimate cfg
      (Analysis.analyze (ok (Transform.unroll ~index:"i" ~factor k)))
  in
  let moderate = at 4 and extreme = at 64 in
  Alcotest.(check bool)
    "no spills at moderate factors" true
    (moderate.spill_penalty_cycles = 0.0);
  Alcotest.(check bool)
    "spills at extreme factors" true
    (extreme.spill_penalty_cycles > 0.0)

(* Register pressure counts an invariant array element once however often
   the body reads and writes it: six accumulators C[i][0..5] (C[i][0]
   twice over), seven statements and four scratch values make 17 live
   values, one over the 16 registers, on each of the N * N innermost
   iterations.  A[i][k] moves with k, so it takes no register. *)
let test_spill_repeated_accumulator () =
  let k =
    Parser.parse_kernel
      {|
kernel acc(N = 8) {
  array A[N][N];
  array C[N][N];
  for i = 0 to N - 1 {
    for k = 0 to N - 1 {
      C[i][0] = C[i][0] + A[i][k];
      C[i][1] = C[i][1] + A[i][k];
      C[i][2] = C[i][2] + A[i][k];
      C[i][3] = C[i][3] + A[i][k];
      C[i][4] = C[i][4] + A[i][k];
      C[i][5] = C[i][5] + A[i][k];
      C[i][0] = C[i][0] * 2.0;
    }
  }
}
|}
  in
  let b = Machine.estimate cfg (Analysis.analyze k) in
  Alcotest.(check (float 0.0))
    "one spilled value per iteration" (64.0 *. cfg.spill_cycles)
    b.spill_penalty_cycles

let test_tiling_helps_large_mm () =
  let k = mm 256 in
  let tiled = ok (Transform.tile_nest [ ("i", 16); ("j", 16); ("k", 16) ] k) in
  let speedup = rt k /. rt tiled in
  if speedup < 2.0 then
    Alcotest.failf "tiling speedup only %.2fx (expected > 2x)" speedup

let test_tiling_memory_component () =
  let k = mm 256 in
  let tiled = ok (Transform.tile_nest [ ("i", 16); ("j", 16); ("k", 16) ] k) in
  let b = Machine.estimate cfg (Analysis.analyze k) in
  let bt = Machine.estimate cfg (Analysis.analyze tiled) in
  Alcotest.(check bool)
    "memory cycles shrink" true
    (bt.memory_cycles < 0.5 *. b.memory_cycles)

let test_tiling_has_sweet_spot () =
  (* Tiny tiles pay overhead; huge tiles stop fitting in cache: runtime as
     a function of tile size must not be monotone. *)
  let k = mm 256 in
  let at t = rt (ok (Transform.tile_nest [ ("i", t); ("j", t); ("k", t) ] k)) in
  let t2 = at 2 and t16 = at 16 and t128 = at 128 in
  Alcotest.(check bool) "2 worse than 16" true (t16 < t2);
  Alcotest.(check bool) "128 worse than 16" true (t16 < t128)

let test_tiling_useless_when_fits () =
  (* For a matrix already resident in L1, tiling can only add overhead. *)
  let k = mm 16 in
  let tiled = ok (Transform.tile_nest [ ("i", 4); ("j", 4); ("k", 4) ] k) in
  Alcotest.(check bool) "no benefit" true (rt tiled >= rt k)

let test_icache_penalty_extreme_unroll () =
  let k = vec_scale 100_000 in
  let at factor =
    Machine.estimate cfg
      (Analysis.analyze (ok (Transform.unroll ~index:"i" ~factor k)))
  in
  Alcotest.(check bool)
    "small body: no icache penalty" true
    ((at 4).icache_penalty_cycles = 0.0);
  Alcotest.(check bool)
    "huge body: icache penalty" true
    ((at 2048).icache_penalty_cycles > 0.0)

let test_compile_time_grows () =
  let k = mm 64 in
  let t0 = Machine.compile_seconds cfg k in
  let t1 =
    Machine.compile_seconds cfg (ok (Transform.unroll ~index:"k" ~factor:16 k))
  in
  Alcotest.(check bool) "positive" true (t0 > 0.0);
  Alcotest.(check bool) "unrolled compiles slower" true (t1 > t0)

let test_ast_size () =
  let k = Parser.parse_kernel "kernel t(N = 4) { array A[N]; A[0] = 1.0; }" in
  Alcotest.(check bool) "small kernel, small size" true
    (Machine.ast_size k < 20);
  let k64 = mm 64 in
  let unrolled = ok (Transform.unroll ~index:"k" ~factor:8 k64) in
  Alcotest.(check bool) "unroll multiplies size" true
    (Machine.ast_size unrolled > 4 * Machine.ast_size k64)

let test_determinism () =
  let k = mm 100 in
  Alcotest.(check (float 0.0)) "same input same estimate" (rt k) (rt k)

(* Property tests. *)

let prop_runtime_positive_under_transform =
  QCheck.Test.make ~name:"runtime stays positive and finite under transforms"
    ~count:80
    QCheck.(
      triple (int_range 1 12) (int_range 1 32) (int_range 16 128))
    (fun (unroll_factor, tile, n) ->
      let k = mm n in
      let k =
        match Transform.tile_nest [ ("i", tile); ("j", tile) ] k with
        | Ok k -> k
        | Error _ -> k
      in
      let k =
        match Transform.unroll ~index:"k" ~factor:unroll_factor k with
        | Ok k -> k
        | Error _ -> k
      in
      let t = rt k in
      Float.is_finite t && t > 0.0)

let prop_flops_invariant_runtime_bounded =
  QCheck.Test.make
    ~name:"transformed runtime within sane factor of baseline" ~count:50
    QCheck.(pair (int_range 1 8) (int_range 1 16))
    (fun (f, t) ->
      let k = mm 64 in
      let k' =
        Result.bind (Transform.tile_nest [ ("j", t); ("k", t) ] k)
          (Transform.unroll ~index:"k" ~factor:f)
      in
      match k' with
      | Error _ -> true
      | Ok k' ->
          let r = rt k' /. rt k in
          r > 0.05 && r < 20.0)

(* Reverse every sequence made only of assignments, at any depth: the
   same statements in the opposite order, so each loop lists the same
   accesses in a different order. *)
let rec reverse_assignment_seqs (s : Ast.stmt) : Ast.stmt =
  match s with
  | Assign _ -> s
  | Seq ss when List.for_all (function Ast.Assign _ -> true | _ -> false) ss
    ->
      Seq (List.rev ss)
  | Seq ss -> Seq (List.map reverse_assignment_seqs ss)
  | For l -> For { l with body = reverse_assignment_seqs l.body }
  | If (c, t, e) ->
      If
        ( c,
          reverse_assignment_seqs t,
          Option.map reverse_assignment_seqs e )

(* The model sums footprints and memory costs over streams in key
   order, not in the order their accesses appear, so permuting the
   statements of a body leaves every price bit-identical. *)
let prop_price_independent_of_statement_order =
  let kernels = Array.of_list (Spapt.all ()) in
  QCheck.Test.make ~name:"price independent of statement order" ~count:440
    QCheck.(pair (int_bound (Array.length kernels - 1)) (int_bound 1_000_000))
    (fun (ki, seed) ->
      let t = kernels.(ki) in
      let config = Spapt.random_config t (Rng.create ~seed) in
      let k = Spapt.transformed t config in
      let k' = { k with body = reverse_assignment_seqs k.body } in
      let r = rt k and r' = rt k' in
      if Int64.bits_of_float r <> Int64.bits_of_float r' then
        QCheck.Test.fail_reportf "%s %s: %h <> %h" (Spapt.name t)
          (String.concat ","
             (Array.to_list (Array.map string_of_int config)))
          r r'
      else true)

(* Six statements, one stream each, under a loop whose averaged trip
   count is inexact, so that summing their costs in a different order
   would move the last bits of the price.  Every order of the statements
   must price the same. *)
let test_price_independent_of_access_order () =
  let k =
    Parser.parse_kernel
      {|
kernel perm(N = 1000) {
  array A[N][N];
  array B[N][N];
  array C[N];
  array D[N][N];
  array E[N];
  array F[N][N];
  for i = 0 to N - 1 {
    for j = 0 to i / 7 {
      A[i][j] = 1.0;
      B[j][i] = 2.0;
      C[j] = 3.0;
      D[i][2 * j] = 4.0;
      E[3 * j] = 5.0;
      F[j][j] = 6.0;
    }
  }
}
|}
  in
  let outer, inner, stmts =
    match k.body with
    | For ({ body = For ({ body = Seq stmts; _ } as inner); _ } as outer) ->
        (outer, inner, stmts)
    | _ -> Alcotest.fail "expected a two-deep nest"
  in
  let rec orders = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map (List.cons x) (orders (List.filter (( != ) x) l)))
          l
  in
  let price order =
    let inner = Ast.For { inner with body = Seq order } in
    rt { k with body = For { outer with body = inner } }
  in
  let expected = price stmts in
  List.iter
    (fun order ->
      let r = price order in
      if Int64.bits_of_float r <> Int64.bits_of_float expected then
        Alcotest.failf "%h <> %h" r expected)
    (orders stmts)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_runtime_positive_under_transform;
        prop_flops_invariant_runtime_bounded;
        prop_price_independent_of_statement_order ]
  in
  Alcotest.run "machine"
    [
      ( "sanity",
        [
          Alcotest.test_case "positive finite" `Quick test_positive_finite;
          Alcotest.test_case "monotone in size" `Quick
            test_monotone_in_problem_size;
          Alcotest.test_case "breakdown adds up" `Quick
            test_breakdown_adds_up;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "price independent of access order" `Quick
            test_price_independent_of_access_order;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "unroll reduces overhead" `Quick
            test_unroll_reduces_overhead;
          Alcotest.test_case "extreme unroll spills" `Quick
            test_extreme_unroll_spills;
          Alcotest.test_case "repeated accumulator spills once" `Quick
            test_spill_repeated_accumulator;
          Alcotest.test_case "tiling helps large mm" `Quick
            test_tiling_helps_large_mm;
          Alcotest.test_case "tiling shrinks memory cycles" `Quick
            test_tiling_memory_component;
          Alcotest.test_case "tiling sweet spot" `Quick
            test_tiling_has_sweet_spot;
          Alcotest.test_case "tiling useless when resident" `Quick
            test_tiling_useless_when_fits;
          Alcotest.test_case "icache penalty" `Quick
            test_icache_penalty_extreme_unroll;
        ] );
      ( "compile model",
        [
          Alcotest.test_case "compile time grows" `Quick
            test_compile_time_grows;
          Alcotest.test_case "ast size" `Quick test_ast_size;
        ] );
      ("properties", qsuite);
    ]
