(* Tests for the native code generator: generated programs must compute
   exactly what the reference interpreter computes (bit-identical
   checksums), including on transformed kernels. *)

module Parser = Altune_kernellang.Parser
module Transform = Altune_kernellang.Transform
module Interp = Altune_kernellang.Interp
module Codegen = Altune_kernellang.Codegen
module Ast = Altune_kernellang.Ast

let ok = function
  | Ok k -> k
  | Error e -> Alcotest.failf "transform: %s" (Transform.error_to_string e)

let interp_checksum ?param_overrides k =
  let results =
    Interp.run_kernel ?param_overrides ~array_init:Codegen.reference_init k
  in
  List.fold_left
    (fun acc (_, a) -> acc +. Array.fold_left ( +. ) 0.0 a)
    0.0 results

let check_equiv ?param_overrides name k =
  let native = Codegen.checksum ?param_overrides k in
  let interp = interp_checksum ?param_overrides k in
  if native <> interp then
    Alcotest.failf "%s: native %.17g <> interp %.17g" name native interp

let mm =
  Parser.parse_kernel
    {|
kernel mm(N = 16, T = 2) {
  array A[N][N];
  array B[N][N];
  array C[N][N];
  for t = 0 to T - 1 {
    for i = 0 to N - 1 {
      for j = 0 to N - 1 {
        for k = 0 to N - 1 {
          C[i][j] = C[i][j] + A[i][k] * B[k][j];
        }
      }
    }
  }
}
|}

let test_expr_to_ocaml () =
  let e = Parser.parse_expr "1 + 2 * 3" in
  Alcotest.(check string) "precedence kept by parens" "(1 + (2 * 3))"
    (Codegen.expr_to_ocaml e);
  let e = Parser.parse_expr "min(4, 7) %/ 2" in
  Alcotest.(check string) "min and idiv" "((min 4 7) / 2)"
    (Codegen.expr_to_ocaml e)

let test_program_text () =
  let src = Codegen.program ~mode:`Checksum mm in
  let contains needle =
    let nl = String.length needle and hl = String.length src in
    let rec go i =
      i + nl <= hl && (String.sub src i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "declares params" true (contains "let p_N = 16");
  Alcotest.(check bool) "declares arrays" true
    (contains "let a_A = Array.make");
  Alcotest.(check bool) "has kernel function" true (contains "let kernel ()");
  Alcotest.(check bool) "prints checksum" true (contains "checksum")

let test_native_matches_interp () = check_equiv "mm" mm

let test_native_matches_on_transformed () =
  let t = ok (Transform.tile_nest [ ("i", 4); ("j", 4); ("k", 4) ] mm) in
  let t = ok (Transform.unroll_and_jam ~index:"i" ~factor:2 t) in
  let t = ok (Transform.unroll ~index:"k" ~factor:3 t) in
  check_equiv "transformed mm" t

let test_native_param_override () =
  check_equiv ~param_overrides:[ ("N", 9) ] "mm N=9" mm

let test_scalars_and_conditionals () =
  let k =
    Parser.parse_kernel
      {|
kernel s(N = 12) {
  array A[N];
  scalar acc;
  for i = 0 to N - 1 {
    if i % 3 == 0 { A[i] = 2.0 * A[i]; } else { A[i] = A[i] + 1.0; }
    acc = acc + A[i];
  }
  A[0] = acc + sqrt(A[1]);
}
|}
  in
  check_equiv "scalars and ifs" k

let test_strided_loops () =
  let k =
    Parser.parse_kernel
      {|
kernel st(N = 40) {
  array A[N];
  for i = 0 to N - 1 step 3 {
    A[i] = A[i] + 1.0;
  }
}
|}
  in
  check_equiv "strided" k

let test_triangular () =
  let k =
    Parser.parse_kernel
      {|
kernel tri(N = 10) {
  array L[N][N];
  for i = 0 to N - 1 {
    for j = 0 to i {
      L[i][j] = L[i][j] + 1.0;
    }
  }
}
|}
  in
  check_equiv "triangular" k

let test_time_native_positive () =
  let t = Codegen.time_native mm in
  Alcotest.(check bool)
    (Printf.sprintf "positive time %g" t)
    true
    (t > 0.0 && t < 1.0)

let test_build_failure_reported () =
  match Codegen.build "let x = this is not ocaml" with
  | exception Failure msg ->
      Alcotest.(check bool) "mentions failure" true
        (String.length msg > 10)
  | compiled ->
      Codegen.cleanup compiled;
      Alcotest.fail "expected build failure"

let () =
  Alcotest.run "codegen"
    [
      ( "emission",
        [
          Alcotest.test_case "expressions" `Quick test_expr_to_ocaml;
          Alcotest.test_case "program text" `Quick test_program_text;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "mm" `Slow test_native_matches_interp;
          Alcotest.test_case "transformed mm" `Slow
            test_native_matches_on_transformed;
          Alcotest.test_case "param override" `Slow
            test_native_param_override;
          Alcotest.test_case "scalars and ifs" `Slow
            test_scalars_and_conditionals;
          Alcotest.test_case "strided" `Slow test_strided_loops;
          Alcotest.test_case "triangular" `Slow test_triangular;
        ] );
      ( "execution",
        [
          Alcotest.test_case "timing" `Slow test_time_native_positive;
          Alcotest.test_case "build failure" `Slow
            test_build_failure_reported;
        ] );
    ]
