(* Tests for the kernel linter and the transformation-soundness checker:
   clean kernels produce no errors, intentionally broken kernels produce
   structured diagnostics with locations, and every legality-approved
   transformation sequence passes the full soundness audit. *)

module Ast = Altune_kernellang.Ast
module Parser = Altune_kernellang.Parser
module Lint = Altune_kernellang.Lint
module Verify = Altune_kernellang.Verify

let mm_src =
  {|
kernel mm(N = 8) {
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

let mm () = Parser.parse_kernel mm_src

let lint_src ?param_overrides src =
  Lint.lint ?param_overrides (Parser.parse_kernel src)

let find code diags =
  List.find_opt (fun (d : Lint.diagnostic) -> d.code = code) diags

let has ?severity code diags =
  List.exists
    (fun (d : Lint.diagnostic) ->
      d.code = code
      && match severity with None -> true | Some s -> d.severity = s)
    diags

let fail_diags what diags =
  Alcotest.failf "%s:\n%s" what
    (String.concat "\n" (List.map Lint.diagnostic_to_string diags))

let test_clean_kernel () =
  let diags = Lint.lint (mm ()) in
  (match Lint.errors diags with
  | [] -> ()
  | errs -> fail_diags "mm should lint without errors" errs);
  Alcotest.(check int) "no warnings" 0 (Lint.count Lint.Warning diags);
  (* A and B are inputs, so the dataflow pass notes them. *)
  Alcotest.(check bool) "input arrays noted" true
    (has ~severity:Lint.Info "read-never-written" diags)

let test_definite_out_of_bounds () =
  let diags =
    lint_src
      {|
kernel bad(N = 8) {
  array A[N];
  for i = 0 to N - 1 { A[N] = 1.0; }
}
|}
  in
  match find "out-of-bounds" diags with
  | None -> fail_diags "expected an out-of-bounds error" diags
  | Some d ->
      Alcotest.(check bool) "severity" true (d.severity = Lint.Error);
      Alcotest.(check (list string)) "located in loop i" [ "i" ] d.loc.loops;
      Alcotest.(check bool) "statement ordinal set" true (d.loc.stmt > 0);
      Alcotest.(check bool) "snippet names the access" true
        (d.loc.detail = "A[N]")

let test_may_out_of_bounds () =
  let diags =
    lint_src
      {|
kernel edge(N = 8) {
  array A[N];
  for i = 0 to N - 1 { A[i + 1] = A[i]; }
}
|}
  in
  Alcotest.(check bool) "warning emitted" true
    (has ~severity:Lint.Warning "may-out-of-bounds" diags);
  Alcotest.(check bool) "not an error" true (Lint.errors diags = [])

(* The parser runs {!Ast.validate}, so kernels that are broken at the
   scoping level have to be built by mutating a parsed one — which is
   exactly the linter's use case: auditing ASTs produced by code, not by
   the front end. *)
let with_loop_body stmt =
  let k =
    Parser.parse_kernel
      {|
kernel scopes(N = 4) {
  array A[N][N];
  for i = 0 to N - 1 { A[i][0] = 1.0; }
}
|}
  in
  match k.Ast.body with
  | Ast.For l -> { k with Ast.body = Ast.For { l with body = stmt } }
  | _ -> Alcotest.fail "unexpected kernel shape"

let test_scoping_errors () =
  let lhs subs = Ast.Array_lhs ("A", subs) in
  let diags =
    Lint.lint
      (with_loop_body
         (Ast.Assign (lhs [ Ast.Var "i"; Ast.Var "j" ], Ast.Float_lit 1.0)))
  in
  Alcotest.(check bool) "unbound subscript variable" true
    (has ~severity:Lint.Error "unbound-variable" diags);
  let diags =
    Lint.lint
      (with_loop_body (Ast.Assign (lhs [ Ast.Var "i" ], Ast.Float_lit 1.0)))
  in
  Alcotest.(check bool) "rank mismatch" true
    (has ~severity:Lint.Error "rank-mismatch" diags);
  let diags =
    Lint.lint
      (with_loop_body
         (Ast.For
            {
              index = "i";
              lo = Ast.Int_lit 0;
              hi = Ast.Int_lit 3;
              step = 1;
              body =
                Ast.Assign
                  (lhs [ Ast.Var "i"; Ast.Var "i" ], Ast.Float_lit 1.0);
            }))
  in
  Alcotest.(check bool) "duplicate loop index" true
    (has ~severity:Lint.Error "duplicate-loop-index" diags);
  let diags =
    Lint.lint
      (with_loop_body (Ast.Assign (Ast.Scalar_lhs "i", Ast.Float_lit 1.0)))
  in
  Alcotest.(check bool) "assignment to loop index" true
    (has ~severity:Lint.Error "assign-to-index" diags)

let test_non_integer_subscript () =
  let diags =
    lint_src
      {|
kernel f(N = 4) {
  array A[N];
  scalar x;
  for i = 0 to N - 1 { A[x] = 1.0; }
}
|}
  in
  Alcotest.(check bool) "float scalar in index position" true
    (has ~severity:Lint.Error "non-integer-subscript" diags)

let test_nonpositive_step () =
  let k =
    Parser.parse_kernel
      {|
kernel s(N = 4) {
  array A[N];
  for i = 0 to N - 1 { A[i] = 1.0; }
}
|}
  in
  let body =
    match k.Ast.body with
    | Ast.For l -> Ast.For { l with step = 0 }
    | _ -> Alcotest.fail "unexpected kernel shape"
  in
  Alcotest.(check bool) "zero step rejected" true
    (has ~severity:Lint.Error "nonpositive-step" (Lint.lint { k with body }))

let test_empty_loop_and_dataflow () =
  let diags =
    lint_src
      {|
kernel flows(N = 8) {
  array A[N];
  array B[N];
  array C[N];
  for i = 5 to 2 { B[i] = A[i]; }
  for j = 0 to N - 1 { B[j] = A[j]; }
}
|}
  in
  Alcotest.(check bool) "empty loop warned" true
    (has ~severity:Lint.Warning "empty-loop" diags);
  Alcotest.(check bool) "input noted" true
    (has ~severity:Lint.Info "read-never-written" diags);
  Alcotest.(check bool) "output noted" true
    (has ~severity:Lint.Info "write-never-read" diags);
  Alcotest.(check bool) "unused array warned" true
    (has ~severity:Lint.Warning "unused-array" diags)

let test_non_affine_note () =
  let diags =
    lint_src
      {|
kernel gather(N = 4) {
  array A[N];
  array B[N];
  for i = 0 to N - 1 { B[i] = A[(i * i) - (i * i)]; }
}
|}
  in
  Alcotest.(check bool) "non-affine access noted" true
    (has ~severity:Lint.Info "non-affine-access" diags)

let test_param_overrides () =
  (* In bounds at the default N = 8, definitely out at N = 2. *)
  let src =
    {|
kernel p(N = 8) {
  array A[N];
  for i = 3 to 4 { A[i] = 1.0; }
}
|}
  in
  Alcotest.(check bool) "clean at defaults" true
    (Lint.errors (lint_src src) = []);
  Alcotest.(check bool) "error at N = 2" true
    (has ~severity:Lint.Error "out-of-bounds"
       (lint_src ~param_overrides:[ ("N", 2) ] src))

let test_dead_unrolled_copies_not_errors () =
  (* Unrolling by more than the trip count leaves the main loop empty;
     its copies access indices past the array end but never execute, so
     the linter must not report definite errors. *)
  let k = mm () in
  let t =
    match Verify.apply_step (Verify.Unroll { index = "j"; factor = 12 }) k with
    | Ok t -> t
    | Error _ -> Alcotest.fail "unroll refused"
  in
  match Lint.errors (Lint.lint ~param_overrides:[ ("N", 7) ] t) with
  | [] -> ()
  | errs -> fail_diags "dead unrolled copies reported as errors" errs

(* --- Soundness checker --- *)

let test_verify_legal_sequence () =
  let v =
    Verify.run
      ~param_overrides:[ ("N", 7) ]
      ~subject:"mm tiled+jammed+unrolled" (mm ())
      [
        Verify.Tile_nest [ ("i", 4); ("j", 4); ("k", 4) ];
        Verify.Unroll_and_jam { index = "i"; factor = 2 };
        Verify.Unroll { index = "j"; factor = 3 };
      ]
  in
  if not (Verify.ok v) then
    Alcotest.failf "legal sequence failed:\n%s" (Verify.verdict_to_string v)

(* Sequences the property below once rejected: after [unroll j x2] the
   copies touch C[i][j] and C[i][j + 1] from iterations of a loop of step
   2, which a stride-blind dependence test read as a (=, >) dependence
   and so refused the later tile step as non-permutable. *)
let test_verify_strided_sequences () =
  List.iter
    (fun (label, steps) ->
      let v =
        Verify.run ~param_overrides:[ ("N", 7) ] ~subject:label (mm ()) steps
      in
      if not (Verify.ok v) then
        Alcotest.failf "%s failed:\n%s" label (Verify.verdict_to_string v))
    [
      ( "unroll j x2; tile i:2 j:8; tile i:2 j:4",
        [
          Verify.Unroll { index = "j"; factor = 2 };
          Verify.Tile_nest [ ("i", 2); ("j", 8) ];
          Verify.Tile_nest [ ("i", 2); ("j", 4) ];
        ] );
      ( "unroll-and-jam i x2; unroll j x3; tile i:4 j:8",
        [
          Verify.Unroll_and_jam { index = "i"; factor = 2 };
          Verify.Unroll { index = "j"; factor = 3 };
          Verify.Tile_nest [ ("i", 4); ("j", 8) ];
        ] );
    ]

(* A[i][j] = A[i - 1][j + 1] carries a (<, >) dependence: interchanging
   (and therefore tiling) the nest reorders it. *)
let skewed_src =
  {|
kernel skewed(N = 8) {
  array A[N][N];
  for i = 1 to N - 1 {
    for j = 0 to N - 2 {
      A[i][j] = A[i - 1][j + 1] + 1.0;
    }
  }
}
|}

let test_verify_illegal_interchange () =
  let k = Parser.parse_kernel skewed_src in
  let step = Verify.Tile_nest [ ("i", 2); ("j", 2) ] in
  (match Verify.legality k step with
  | Verify.Fail _ -> ()
  | Verify.Pass | Verify.Skipped _ ->
      Alcotest.fail "tiling a (<, >) nest reported legal");
  let v = Verify.run ~subject:"skewed" k [ step ] in
  Alcotest.(check bool) "verdict fails" false (Verify.ok v);
  Alcotest.(check bool) "legality among failures" true
    (List.exists
       (fun (_, (c : Verify.check)) -> c.check_name = "legality")
       (Verify.failures v))

let test_check_pair_catches_broken_transforms () =
  let original = mm () in
  (* Wrong operand order: same access counts, different values. *)
  let transposed =
    Parser.parse_kernel
      {|
kernel mm(N = 8) {
  array A[N][N];
  array B[N][N];
  array C[N][N];
  for i = 0 to N - 1 {
    for j = 0 to N - 1 {
      for k = 0 to N - 1 {
        C[i][j] = C[i][j] + A[i][k] * B[j][k];
      }
    }
  }
}
|}
  in
  let checks =
    Verify.check_pair
      ~param_overrides:[ ("N", 7) ]
      ~original ~transformed:transposed ()
  in
  Alcotest.(check bool) "differential catches wrong values" true
    (List.exists
       (fun (c : Verify.check) ->
         c.check_name = "differential"
         && match c.status with Verify.Fail _ -> true | _ -> false)
       checks);
  (* Dropped iteration: the access counts no longer match. *)
  let truncated =
    Parser.parse_kernel
      {|
kernel mm(N = 8) {
  array A[N][N];
  array B[N][N];
  array C[N][N];
  for i = 0 to N - 1 {
    for j = 0 to N - 1 {
      for k = 0 to N - 2 {
        C[i][j] = C[i][j] + A[i][k] * B[k][j];
      }
    }
  }
}
|}
  in
  let checks =
    Verify.check_pair
      ~param_overrides:[ ("N", 7) ]
      ~original ~transformed:truncated ()
  in
  Alcotest.(check bool) "access counts catch dropped iterations" true
    (List.exists
       (fun (c : Verify.check) ->
         c.check_name = "access-counts"
         && match c.status with Verify.Fail _ -> true | _ -> false)
       checks)

(* --- Property: every transformation sequence Transform accepts passes
   the full audit (legality, lint, dependence re-analysis, access counts,
   differential execution). --- *)

let step_gen =
  QCheck.Gen.(
    oneof
      [
        map
          (fun f -> Verify.Unroll { index = "k"; factor = 2 + f })
          (int_bound 6);
        map
          (fun f -> Verify.Unroll { index = "j"; factor = 2 + f })
          (int_bound 4);
        map
          (fun f -> Verify.Unroll_and_jam { index = "i"; factor = 2 + f })
          (int_bound 3);
        map
          (fun f -> Verify.Unroll_and_jam { index = "j"; factor = 2 + f })
          (int_bound 3);
        map2
          (fun a b -> Verify.Tile_nest [ ("i", 1 lsl a); ("j", 1 lsl b) ])
          (int_range 1 3) (int_range 1 3);
        map
          (fun t -> Verify.Tile_nest [ ("k", 1 lsl t) ])
          (int_range 1 3);
      ])

let prop_accepted_sequences_audit_clean =
  QCheck.Test.make
    ~name:"accepted transformation sequences pass the soundness audit"
    ~count:40
    (QCheck.make
       ~print:(fun steps ->
         String.concat "; " (List.map Verify.step_to_string steps))
       QCheck.Gen.(list_size (int_range 1 3) step_gen))
    (fun steps ->
      (* Keep the prefix-dependent subset Transform accepts (a step may
         legitimately refuse after an earlier one renamed its loop). *)
      let rec accepted k acc = function
        | [] -> List.rev acc
        | s :: rest -> (
            match Verify.apply_step s k with
            | Ok k' -> accepted k' (s :: acc) rest
            | Error _ -> accepted k acc rest)
      in
      let steps = accepted (mm ()) [] steps in
      let v = Verify.run ~param_overrides:[ ("N", 7) ] (mm ()) steps in
      if Verify.ok v then true
      else QCheck.Test.fail_report (Verify.verdict_to_string v))

let () =
  Alcotest.run "lint"
    [
      ( "lint",
        [
          Alcotest.test_case "clean kernel" `Quick test_clean_kernel;
          Alcotest.test_case "definite out of bounds" `Quick
            test_definite_out_of_bounds;
          Alcotest.test_case "may out of bounds" `Quick
            test_may_out_of_bounds;
          Alcotest.test_case "scoping errors" `Quick test_scoping_errors;
          Alcotest.test_case "non-integer subscript" `Quick
            test_non_integer_subscript;
          Alcotest.test_case "nonpositive step" `Quick test_nonpositive_step;
          Alcotest.test_case "empty loop and dataflow" `Quick
            test_empty_loop_and_dataflow;
          Alcotest.test_case "non-affine note" `Quick test_non_affine_note;
          Alcotest.test_case "parameter overrides" `Quick
            test_param_overrides;
          Alcotest.test_case "dead unrolled copies" `Quick
            test_dead_unrolled_copies_not_errors;
        ] );
      ( "verify",
        [
          Alcotest.test_case "legal sequence" `Quick
            test_verify_legal_sequence;
          Alcotest.test_case "illegal interchange" `Quick
            test_verify_illegal_interchange;
          Alcotest.test_case "broken transforms" `Quick
            test_check_pair_catches_broken_transforms;
          Alcotest.test_case "strided sequences" `Quick
            test_verify_strided_sequences;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_accepted_sequences_audit_clean ]
      );
    ]
