(* Tests for the kernel IR: parsing, printing round-trips, the reference
   interpreter, semantics preservation of every loop transformation, and
   the static analysis. *)

module Ast = Altune_kernellang.Ast
module Parser = Altune_kernellang.Parser
module Pretty = Altune_kernellang.Pretty
module Interp = Altune_kernellang.Interp
module Transform = Altune_kernellang.Transform
module Analysis = Altune_kernellang.Analysis
module Simplify = Altune_kernellang.Simplify
module Rng = Altune_prng.Rng

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

let jacobi_src =
  {|
kernel jacobi(N = 16, T = 4) {
  array A[N];
  array B[N];
  for t = 0 to T - 1 {
    for i = 1 to N - 2 {
      B[i] = 0.33333 * (A[i - 1] + A[i] + A[i + 1]);
    }
    for i2 = 1 to N - 2 {
      A[i2] = B[i2];
    }
  }
}
|}

let triangular_src =
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

let mm () = Parser.parse_kernel mm_src
let jacobi () = Parser.parse_kernel jacobi_src

(* Deterministic pseudo-random initial contents so runs are comparable. *)
let array_init name i =
  let h = Hashtbl.hash (name, i) land 0xFFFF in
  (float_of_int h /. 65536.0) -. 0.5

let run_with_init ?param_overrides kernel =
  Interp.run_kernel ?param_overrides ~array_init kernel

let arrays_equal ?(eps = 0.0) a b =
  List.length a = List.length b
  && List.for_all2
       (fun (na, va) (nb, vb) ->
         na = nb
         && Array.length va = Array.length vb
         && Array.for_all2
              (fun x y ->
                if eps = 0.0 then x = y
                else
                  Float.abs (x -. y)
                  <= eps *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)))
              va vb)
       a b

let check_same_semantics ?eps ~msg original transformed =
  (match Ast.validate transformed with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "%s: transformed kernel invalid: %s" msg
        (Format.asprintf "%a" Ast.pp_validation_error e));
  let ra = run_with_init original and rb = run_with_init transformed in
  if not (arrays_equal ?eps ra rb) then
    Alcotest.failf "%s: outputs differ\n%s" msg (Pretty.to_string transformed)

let ok = function
  | Ok k -> k
  | Error e -> Alcotest.failf "transform failed: %s" (Transform.error_to_string e)

(* --- Parser tests --- *)

let test_parse_precedence () =
  let e = Parser.parse_expr "1 + 2 * 3" in
  (match e with
  | Ast.Binop (Add, Int_lit 1, Binop (Mul, Int_lit 2, Int_lit 3)) -> ()
  | _ -> Alcotest.fail "precedence wrong");
  let e = Parser.parse_expr "(1 + 2) * 3" in
  match e with
  | Ast.Binop (Mul, Binop (Add, Int_lit 1, Int_lit 2), Int_lit 3) -> ()
  | _ -> Alcotest.fail "parenthesized precedence wrong"

let test_parse_associativity () =
  match Parser.parse_expr "10 - 4 - 3" with
  | Ast.Binop (Sub, Binop (Sub, Int_lit 10, Int_lit 4), Int_lit 3) -> ()
  | _ -> Alcotest.fail "subtraction must associate left"

let test_parse_min_max_sqrt () =
  (match Parser.parse_expr "min(a, 3)" with
  | Ast.Binop (Min, Var "a", Int_lit 3) -> ()
  | _ -> Alcotest.fail "min");
  (match Parser.parse_expr "max(1, 2)" with
  | Ast.Binop (Max, Int_lit 1, Int_lit 2) -> ()
  | _ -> Alcotest.fail "max");
  match Parser.parse_expr "sqrt(x + 1.5)" with
  | Ast.Sqrt (Binop (Add, Var "x", Float_lit 1.5)) -> ()
  | _ -> Alcotest.fail "sqrt"

let test_parse_kernel_shape () =
  let k = mm () in
  Alcotest.(check string) "name" "mm" k.kernel_name;
  Alcotest.(check (list (pair string int))) "params" [ ("N", 8) ] k.params;
  Alcotest.(check int) "arrays" 3 (List.length k.arrays);
  Alcotest.(check (list string))
    "loop indices" [ "i"; "j"; "k" ]
    (Ast.loop_indices k.body)

let test_parse_comments_and_step () =
  let k =
    Parser.parse_kernel
      "kernel s(N = 6) { # comment line\narray A[N];\nfor i = 0 to N - 1 \
       step 2 { A[i] = 1.0; } }"
  in
  match Ast.find_loop k.body "i" with
  | Some l -> Alcotest.(check int) "step" 2 l.step
  | None -> Alcotest.fail "loop not found"

let test_parse_if_cond () =
  let s =
    Parser.parse_stmt
      "if (a < 3 || b >= 2) && !(a == b) { x = 1.0; } else { x = 2.0; }"
  in
  match s with
  | Ast.If (And (Or (Cmp (Lt, _, _), Cmp (Ge, _, _)), Not (Cmp (Eq, _, _))),
      _, Some _) ->
      ()
  | _ -> Alcotest.fail "condition structure wrong"

let test_parse_errors () =
  let expect_error src =
    match Parser.parse_kernel src with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %s" src
  in
  expect_error "kernel k(N = 4) { array A[N]; A[zzz] = 1.0; }";
  expect_error
    "kernel k(N = 4) { array A[N]; for i = 0 to 3 { for i = 0 to 3 { A[i] = \
     1.0; } } }";
  expect_error "kernel k(N = 4) { array A[N]; B[0] = 1.0; }";
  expect_error "kernel k(N = 4) { array A[N][N]; A[0] = 1.0; }";
  expect_error "kernel k(N = 4) { array A[N]; for i = 0 to 3 step 0 { A[i] = 1.0; } }";
  expect_error "kernel k(N = 4) { array A[N]; A[0] = 1.0 }"

let test_roundtrip kernel_src () =
  let k = Parser.parse_kernel kernel_src in
  let printed = Pretty.to_string k in
  let k' = Parser.parse_kernel printed in
  if k <> k' then
    Alcotest.failf "round-trip mismatch:\n%s\nvs\n%s" printed
      (Pretty.to_string k')

let test_roundtrip_transformed () =
  (* The printer must round-trip the min/Idiv-heavy bounds produced by the
     transformations. *)
  let k = mm () in
  let k = ok (Transform.tile_nest [ ("i", 4); ("j", 4) ] k) in
  let k = ok (Transform.unroll ~index:"k" ~factor:3 k) in
  let printed = Pretty.to_string k in
  let k' = Parser.parse_kernel printed in
  if k <> k' then Alcotest.fail "transformed round-trip mismatch"

(* --- Interpreter tests --- *)

let test_interp_mm () =
  let k = mm () in
  let n = 8 in
  let results = run_with_init k in
  let a = List.assoc "A" results and b = List.assoc "B" results in
  let c = List.assoc "C" results in
  (* Reference product computed directly, plus the initial C contents. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let acc = ref (array_init "C" ((i * n) + j)) in
      for kk = 0 to n - 1 do
        acc := !acc +. (a.((i * n) + kk) *. b.((kk * n) + j))
      done;
      if Float.abs (!acc -. c.((i * n) + j)) > 1e-12 then
        Alcotest.failf "C[%d][%d] mismatch" i j
    done
  done

let test_interp_param_override () =
  let k = mm () in
  let results = run_with_init ~param_overrides:[ ("N", 3) ] k in
  Alcotest.(check int) "resized" 9 (Array.length (List.assoc "C" results))

let test_interp_triangular () =
  let k = Parser.parse_kernel triangular_src in
  let results = Interp.run_kernel k in
  let l = List.assoc "L" results in
  let total = Array.fold_left ( +. ) 0.0 l in
  (* Sum over i of (i+1) ones = N(N+1)/2 = 55 for N=10. *)
  Alcotest.(check (float 1e-9)) "triangular iteration count" 55.0 total

let test_interp_scalar_and_if () =
  let k =
    Parser.parse_kernel
      {|
kernel s(N = 5) {
  array A[N];
  scalar acc;
  for i = 0 to N - 1 {
    if i % 2 == 0 { A[i] = 2.0; } else { A[i] = 1.0; }
    acc = acc + A[i];
  }
  A[0] = acc;
}
|}
  in
  let results = Interp.run_kernel k in
  let a = List.assoc "A" results in
  (* 3 evens (2.0) + 2 odds (1.0) = 8. *)
  Alcotest.(check (float 1e-9)) "accumulated" 8.0 a.(0)

let test_interp_out_of_bounds () =
  let k =
    Parser.parse_kernel
      "kernel bad(N = 4) { array A[N]; for i = 0 to N { A[i] = 1.0; } }"
  in
  match Interp.run_kernel k with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected out-of-bounds error"

(* --- Transformation tests --- *)

let test_unroll_exact () =
  let k = mm () in
  List.iter
    (fun factor ->
      let t = ok (Transform.unroll ~index:"k" ~factor k) in
      check_same_semantics ~msg:(Printf.sprintf "unroll k by %d" factor) k t)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 16 ]

let test_unroll_outer_loop () =
  let k = mm () in
  List.iter
    (fun factor ->
      let t = ok (Transform.unroll ~index:"i" ~factor k) in
      check_same_semantics ~msg:(Printf.sprintf "unroll i by %d" factor) k t)
    [ 2; 3; 5 ]

let test_unroll_triangular () =
  let k = Parser.parse_kernel triangular_src in
  let t = ok (Transform.unroll ~index:"j" ~factor:3 k) in
  check_same_semantics ~msg:"unroll triangular inner" k t

let test_unroll_composes () =
  let k = mm () in
  let t = ok (Transform.unroll ~index:"k" ~factor:2 k) in
  let t = ok (Transform.unroll ~index:"j" ~factor:3 t) in
  check_same_semantics ~msg:"unroll j after k" k t

let test_unroll_errors () =
  let k = mm () in
  (match Transform.unroll ~index:"z" ~factor:2 k with
  | Error (Loop_not_found "z") -> ()
  | _ -> Alcotest.fail "expected Loop_not_found");
  match Transform.unroll ~index:"i" ~factor:0 k with
  | Error (Bad_factor ("i", 0)) -> ()
  | _ -> Alcotest.fail "expected Bad_factor"

let test_strip_mine () =
  let k = mm () in
  List.iter
    (fun tile ->
      let t = ok (Transform.strip_mine ~index:"j" ~tile ~tile_index:"jt" k) in
      check_same_semantics ~msg:(Printf.sprintf "strip-mine %d" tile) k t)
    [ 1; 2; 3; 4; 8; 16 ]

let test_strip_mine_name_clash () =
  let k = mm () in
  match Transform.strip_mine ~index:"j" ~tile:4 ~tile_index:"i" k with
  | Error (Name_clash "i") -> ()
  | _ -> Alcotest.fail "expected Name_clash"

let test_interchange () =
  let k = mm () in
  (* i and j are interchangeable in mm without changing results at all:
     the reduction order over k is untouched. *)
  let t = ok (Transform.interchange ~outer:"i" ~inner:"j" k) in
  check_same_semantics ~msg:"interchange i j" k t

let test_interchange_reduction_order () =
  let k = mm () in
  (* Interchanging j and k reorders the floating-point reduction, so allow
     a relative tolerance. *)
  let t = ok (Transform.interchange ~outer:"j" ~inner:"k" k) in
  check_same_semantics ~eps:1e-10 ~msg:"interchange j k" k t

let test_interchange_not_nested () =
  let k = jacobi () in
  (* The t loop contains two inner loops: not a perfect nest. *)
  match Transform.interchange ~outer:"t" ~inner:"i" k with
  | Error (Not_perfectly_nested _) -> ()
  | _ -> Alcotest.fail "expected Not_perfectly_nested"

let test_interchange_triangular_rejected () =
  let k = Parser.parse_kernel triangular_src in
  match Transform.interchange ~outer:"i" ~inner:"j" k with
  | Error (Not_perfectly_nested _) -> ()
  | _ -> Alcotest.fail "expected rejection: inner bound depends on outer"

let test_tile_nest () =
  let k = mm () in
  List.iter
    (fun (ti, tj, tk) ->
      let t = ok (Transform.tile_nest [ ("i", ti); ("j", tj); ("k", tk) ] k) in
      check_same_semantics ~eps:1e-10
        ~msg:(Printf.sprintf "tile %dx%dx%d" ti tj tk)
        k t)
    [ (2, 2, 2); (4, 4, 4); (3, 5, 2); (1, 4, 1); (8, 8, 8); (16, 16, 16) ]

let test_tile_nest_partial () =
  let k = mm () in
  let t = ok (Transform.tile_nest [ ("j", 3) ] k) in
  check_same_semantics ~msg:"tile single loop" k t

(* The loop nest under [index], outermost first, through single-loop
   bodies. *)
let nest_under (k : Ast.kernel) index =
  let rec chain (s : Ast.stmt) =
    match s with
    | For l -> l.index :: chain l.body
    | Seq [ s ] -> chain s
    | Assign _ | Seq _ | If _ -> []
  in
  match Ast.find_loop k.body index with
  | Some l -> chain (For l)
  | None -> Alcotest.failf "loop %s not found" index

(* An unrelated loop whose name starts with "i_t" must not be taken for
   the tile loop of [i]: every tile loop still ends up above every point
   loop. *)
let test_tile_nest_prefix_name () =
  let k =
    Parser.parse_kernel
      {|
kernel tail(N = 8) {
  array A[N][N];
  array B[N];
  for i_tail = 0 to N - 1 {
    B[i_tail] = 0.0;
  }
  for j = 0 to N - 1 {
    for i = 0 to N - 1 {
      A[j][i] = A[j][i] + B[i];
    }
  }
}
|}
  in
  let t = ok (Transform.tile_nest [ ("j", 2); ("i", 2) ] k) in
  Alcotest.(check (list string))
    "tile loops above point loops" [ "j_t"; "i_t"; "j"; "i" ]
    (nest_under t "j_t");
  check_same_semantics ~msg:"tile next to i_tail" k t

(* Copies of a nested loop take the lowest free [_c] suffixes, in copy
   order and then the remainder's, skipping one the kernel already uses. *)
let test_unroll_copy_names () =
  let k =
    Parser.parse_kernel
      {|
kernel taken(N = 8) {
  array A[N][N];
  array B[N];
  for j_c0 = 0 to N - 1 {
    B[j_c0] = 1.0;
  }
  for i = 0 to N - 1 {
    for j = 0 to N - 1 {
      A[i][j] = B[j] + A[i][j];
    }
  }
}
|}
  in
  let t = ok (Transform.unroll ~index:"i" ~factor:3 k) in
  Alcotest.(check (list string))
    "loop names"
    [ "j_c0"; "i"; "j"; "j_c1"; "j_c2"; "i_r"; "j_c3" ]
    (Ast.loop_indices t.body);
  check_same_semantics ~msg:"unroll around a taken j_c0" k t

let test_unroll_and_jam () =
  let k = mm () in
  List.iter
    (fun factor ->
      let t = ok (Transform.unroll_and_jam ~index:"j" ~factor k) in
      check_same_semantics ~eps:1e-10
        ~msg:(Printf.sprintf "unroll-and-jam j by %d" factor)
        k t)
    [ 1; 2; 3; 4; 5; 8 ]

let test_unroll_and_jam_outer () =
  let k = mm () in
  let t = ok (Transform.unroll_and_jam ~index:"i" ~factor:2 k) in
  check_same_semantics ~eps:1e-10 ~msg:"unroll-and-jam i" k t

let test_unroll_and_jam_unsafe () =
  let k =
    Parser.parse_kernel
      {|
kernel dot(N = 8) {
  array A[N][N];
  array x[N];
  scalar acc;
  for i = 0 to N - 1 {
    for j = 0 to N - 1 {
      acc = acc + A[i][j] * x[j];
    }
  }
}
|}
  in
  match Transform.unroll_and_jam ~index:"i" ~factor:2 k with
  | Error (Unsafe_jam "i") -> ()
  | _ -> Alcotest.fail "expected Unsafe_jam for scalar accumulator"

let test_full_recipe () =
  (* The composition used by the SPAPT problems: cache tile, register tile,
     then unroll the innermost point loop. *)
  let k = mm () in
  let t = ok (Transform.tile_nest [ ("i", 4); ("j", 4); ("k", 4) ] k) in
  let t = ok (Transform.unroll_and_jam ~index:"i" ~factor:2 t) in
  let t = ok (Transform.unroll ~index:"k" ~factor:3 t) in
  check_same_semantics ~eps:1e-10 ~msg:"full recipe" k t

(* --- Analysis tests --- *)

let test_analysis_mm () =
  let k = mm () in
  let a = Analysis.analyze k in
  let n = 8.0 in
  Alcotest.(check (float 1e-6))
    "flops 2N^3"
    (2.0 *. (n ** 3.0))
    (Analysis.total_flops a);
  Alcotest.(check (float 1e-6))
    "iterations N + N^2 + N^3"
    (n +. (n ** 2.0) +. (n ** 3.0))
    (Analysis.total_iterations a);
  Alcotest.(check (float 1e-6))
    "4 accesses per innermost iteration"
    (4.0 *. (n ** 3.0))
    (Analysis.total_memory_accesses a);
  match a.roots with
  | [ root ] -> (
      Alcotest.(check string) "outer loop" "i" root.index;
      Alcotest.(check (float 1e-9)) "outer trips" 8.0 root.trips;
      match root.children with
      | [ j ] -> (
          match j.children with
          | [ kk ] -> (
              (* The read and the write of C[i][j] share a stream. *)
              Alcotest.(check (list (triple string int int)))
                "streams (array, distinct, mult), descending"
                [ ("C", 1, 2); ("B", 1, 1); ("A", 1, 1) ]
                (List.map
                   (fun (st : Analysis.stream) ->
                     (st.array, st.distinct, st.mult))
                   kk.streams);
              match kk.streams with
              | [ _; b; _ ] ->
                  Alcotest.(check (list (pair string (float 0.0))))
                    "B strides, innermost index first: N over k, 1 over j"
                    [ ("k", 8.0); ("j", 1.0) ]
                    b.coeffs
              | _ -> Alcotest.fail "expected three streams")
          | _ -> Alcotest.fail "expected single k loop")
      | _ -> Alcotest.fail "expected single j loop")
  | _ -> Alcotest.fail "expected single root"

let test_analysis_param_override () =
  let k = mm () in
  let a = Analysis.analyze ~param_overrides:[ ("N", 16) ] k in
  Alcotest.(check (float 1e-6))
    "flops scale" (2.0 *. (16.0 ** 3.0))
    (Analysis.total_flops a)

let test_analysis_triangular () =
  let k = Parser.parse_kernel triangular_src in
  let a = Analysis.analyze k in
  (* Inner trips average (lo=0, hi=i, i mid-range 4.5): 5.5 per outer
     iteration; the analysis sees 10 * 5.5 = 55 inner iterations, matching
     the true triangular count. *)
  Alcotest.(check (float 1e-6))
    "triangular iterations" (10.0 +. 55.0)
    (Analysis.total_iterations a)

let test_analysis_unroll_reduces_iterations () =
  let k = mm () in
  let before = Analysis.total_iterations (Analysis.analyze k) in
  let t = ok (Transform.unroll ~index:"k" ~factor:4 k) in
  let after = Analysis.total_iterations (Analysis.analyze t) in
  Alcotest.(check bool)
    (Printf.sprintf "fewer iterations after unroll (%g < %g)" after before)
    true (after < before);
  (* Flops must be conserved by unrolling. *)
  Alcotest.(check (float 1.0))
    "flops conserved"
    (Analysis.total_flops (Analysis.analyze k))
    (Analysis.total_flops (Analysis.analyze t))

let test_analysis_code_size_grows () =
  let k = mm () in
  let size roots =
    match roots with
    | [ r ] -> Analysis.innermost_code_size r
    | _ -> Alcotest.fail "one root expected"
  in
  let before = size (Analysis.analyze k).roots in
  let t = ok (Transform.unroll ~index:"k" ~factor:8 k) in
  let after = size (Analysis.analyze t).roots in
  Alcotest.(check bool) "code grows with unrolling" true (after > before)

(* A loop body of nested sequences with a loop in the middle and an
   [If] with both branches, built by hand because the parser flattens
   sequences. *)
let source_order_kernel () =
  let stmt = Parser.parse_stmt in
  let body =
    Ast.Seq
      [
        Seq
          [
            stmt "A[i][0] = B[i][1] + C[i];";
            Seq [ stmt "D[i] = A[i][2] * C[i + 1];" ];
          ];
        stmt "for j = 0 to N - 1 { A[i][j] = 0.0; }";
        Seq
          [
            stmt
              "if (i + 1 < 4) { C[i] = D[i]; B[i][i] = 1.0; } else { D[i] \
               = B[0][i] - C[0]; }";
            stmt "for k = 0 to N - 1 { C[k] = 1.0; }";
          ];
      ]
  in
  let k =
    Parser.parse_kernel
      {|
kernel order(N = 8) {
  array A[N][N];
  array B[N][N];
  array C[N];
  array D[N];
  for i = 0 to N - 1 {
    C[i] = 0.0;
  }
}
|}
  in
  match k.body with
  | For l -> { k with body = For { l with body } }
  | _ -> Alcotest.fail "expected one loop"

let test_analysis_stream_view () =
  let key (st : Analysis.stream) =
    Printf.sprintf "%s[%s]%s d%d m%d" st.array
      (String.concat ","
         (List.map (fun (v, c) -> Printf.sprintf "%s:%g" v c) st.coeffs))
      (if st.affine then "" else "?")
      st.distinct st.mult
  in
  match (Analysis.analyze (source_order_kernel ())).roots with
  | [ root ] ->
      (* Twelve accesses; A[N][N] and B[N][N] have row stride 8.  Copies
         that differ only in their constant offset share a stream. *)
      Alcotest.(check (list string))
        "streams in descending (array, coeffs, affine) order"
        [
          "D[i:1] d1 m3"; "C[i:1] d2 m3"; "C[] d1 m1"; "B[i:9] d1 m1";
          "B[i:8] d1 m1"; "B[i:1] d1 m1"; "A[i:8] d2 m2";
        ]
        (List.map key root.streams);
      Alcotest.(check (list string))
        "children in source order" [ "j"; "k" ]
        (List.map (fun (c : Analysis.loop_node) -> c.index) root.children);
      (* The If counts each branch at half weight plus its condition's
         operations and one statement of its own: then-branch 0 flops,
         3 iops, 2 statements; else-branch 1, 1, 1; condition 1 op. *)
      Alcotest.(check (float 0.0)) "flops" (1.0 +. 1.0 +. 1.5) root.flops;
      Alcotest.(check (float 0.0)) "iops" (2.0 +. 2.0 +. 2.0) root.iops;
      Alcotest.(check (float 0.0)) "stmts" (1.0 +. 1.0 +. 2.5) root.stmts
  | _ -> Alcotest.fail "expected one root"

(* The streams of the innermost loop of [k]'s first nest. *)
let innermost_streams (k : Ast.kernel) =
  let rec down (n : Analysis.loop_node) =
    match n.children with [] -> n | c :: _ -> down c
  in
  match (Analysis.analyze k).roots with
  | root :: _ -> (down root).streams
  | [] -> Alcotest.fail "expected a loop"

(* Each stream's array with its affine flag, distinct and access
   counts. *)
let counts = Alcotest.(list (pair string (triple bool int int)))

let stream_counts streams =
  List.map
    (fun (st : Analysis.stream) ->
      (st.array, (st.affine, st.distinct, st.mult)))
    streams

let test_analysis_unrolled_copies () =
  let k =
    Parser.parse_kernel
      {|
kernel u(N = 16) {
  array A[N][N];
  for i = 0 to N - 1 {
    for j = 0 to N - 1 {
      A[i][j] = 1.0;
    }
  }
}
|}
  in
  let t = ok (Transform.unroll ~index:"j" ~factor:4 k) in
  match (Analysis.analyze t).roots with
  | [ { children = [ main; _remainder ]; _ } ] -> (
      Alcotest.check counts "four copies, one stream" [ ("A", (true, 4, 4)) ]
        (stream_counts main.streams);
      match main.streams with
      | [ a ] ->
          Alcotest.(check (list (pair string (float 0.0))))
            "coefficients" [ ("j", 1.0); ("i", 16.0) ] a.coeffs
      | _ -> Alcotest.fail "expected one stream")
  | _ -> Alcotest.fail "expected the unrolled loop and its remainder"

let test_analysis_repeated_offset () =
  let k =
    Parser.parse_kernel
      {|
kernel r(N = 8) {
  array A[N];
  array B[N];
  for i = 0 to N - 1 {
    A[i] = A[i] + B[i];
  }
}
|}
  in
  Alcotest.check counts "A once in distinct, twice in mult"
    [ ("B", (true, 1, 1)); ("A", (true, 1, 2)) ]
    (stream_counts (innermost_streams k))

(* A stream's distinct count is its number of offset classes under
   [Float.compare], whatever order the offsets arrive in: here descending
   and mixed with repeats, fractional and large, and all NaN (one
   class). *)
let test_analysis_distinct_classes () =
  let check src offsets =
    let k = Parser.parse_kernel src in
    match
      List.filter
        (fun (st : Analysis.stream) -> st.array = "A")
        (innermost_streams k)
    with
    | [ a ] ->
        Alcotest.(check int)
          "distinct" (List.length (List.sort_uniq Float.compare offsets))
          a.distinct;
        Alcotest.(check int) "mult" (List.length offsets) a.mult
    | _ -> Alcotest.fail "expected one stream of A"
  in
  check
    {|
kernel d(N = 8) {
  array A[N];
  array B[N];
  for i = 0 to N - 1 {
    B[i] = A[i + 1000000] + A[i + 3] + A[i + 0.5] + A[i + 3] + A[i - 2]
      + A[i + 0.5] + A[i] + A[i + 1000000];
  }
}
|}
    [ 1000000.0; 3.0; 0.5; 3.0; -2.0; 0.5; 0.0; 1000000.0 ];
  check
    {|
kernel n(N = 8) {
  array A[N];
  array B[N];
  for i = 0 to N - 1 {
    B[i] = A[1e999 * 0 + i] + A[1e999 * 0 + i];
  }
}
|}
    [ Float.nan; Float.nan ]

let test_analysis_indirect_stream () =
  let k =
    Parser.parse_kernel
      {|
kernel g(N = 8) {
  array A[N];
  array B[N];
  array C[N];
  for i = 0 to N - 1 {
    C[i] = A[B[i]] + A[i] + A[B[i + 1]];
  }
}
|}
  in
  (* Both gathers share one non-affine stream (offset 0, no
     coefficients), apart from the affine A[i]. *)
  Alcotest.check counts "gathers are their own stream"
    [
      ("C", (true, 1, 1)); ("B", (true, 2, 2)); ("A", (true, 1, 1));
      ("A", (false, 1, 2));
    ]
    (stream_counts (innermost_streams k))

(* A loop bound whose divisor averages to a value in (-1, 1) truncates to
   zero: the bound is not affine, so the loop gets no trips. *)
let test_analysis_fractional_divisor () =
  let k =
    Parser.parse_kernel
      {|
kernel divz(N = 8) {
  array A[N][2];
  for j = 0 to 1 {
    for i = 0 to N %/ j {
      A[i][j] = 1.0;
    }
  }
}
|}
  in
  match (Analysis.analyze k).roots with
  | [ { children = [ inner ]; _ } ] ->
      Alcotest.(check (float 0.0)) "inner trips" 0.0 inner.trips
  | _ -> Alcotest.fail "expected a two-deep nest"

(* A subscript scaled by a non-finite constant: [inf *. 0.0] makes the
   coefficient of every live index NaN, including [k], which no subscript
   mentions, and NaN survives the zero-coefficient filter. *)
let test_analysis_nonfinite_factor () =
  let k =
    Parser.parse_kernel
      {|
kernel nonfinite(N = 8) {
  array A[N][N];
  for i = 0 to N - 1 {
    for j = 0 to N - 1 {
      for k = 0 to N - 1 {
        A[1e999 * i][j] = 1.0;
      }
    }
  }
}
|}
  in
  match (Analysis.analyze k).roots with
  | [ { children = [ { children = [ { streams = [ a ]; _ } ]; _ } ]; _ } ] ->
      Alcotest.(check bool) "affine" true a.affine;
      Alcotest.(check (list string)) "indices" [ "k"; "j"; "i" ]
        (List.map fst a.coeffs);
      Alcotest.(check (list string)) "coefficients" [ "nan"; "nan"; "inf" ]
        (List.map
           (fun (_, c) ->
             if Float.is_nan c then "nan" else if c = infinity then "inf"
             else Printf.sprintf "%h" c)
           a.coeffs);
      Alcotest.(check (pair int int)) "one access" (1, 1) (a.distinct, a.mult)
  | _ -> Alcotest.fail "expected a three-deep nest with one stream"

(* --- Simplify tests --- *)

let test_simplify_expr_folds () =
  let e = Parser.parse_expr in
  let check name input expected =
    Alcotest.(check bool) name true (Simplify.expr (e input) = e expected)
  in
  check "constants" "1 + 2 * 3" "7";
  check "identity add" "x + 0" "x";
  check "identity mul" "1 * x" "x";
  check "zero mul" "x * 0" "0";
  check "idiv one" "x %/ 1" "x";
  check "min equal" "min(x + 1, x + 1)" "x + 1";
  check "x - x" "(a + b) - (a + b)" "0";
  check "reassociate" "(x + 3) + 4" "x + 7";
  check "reassociate sub" "(x - 3) + 1" "x - 2"

let test_simplify_unrolled_bounds () =
  (* The unroll transformation generates gnarly symbolic bounds; after
     simplification with constant N they should fold to literals. *)
  let k =
    Parser.parse_kernel
      "kernel u(N = 16) { array A[N]; for i = 0 to 15 { A[i] = 1.0; } }"
  in
  let t = ok (Transform.unroll ~index:"i" ~factor:4 k) in
  let simplified = Simplify.kernel t in
  match Ast.find_loop simplified.body "i" with
  | Some l ->
      Alcotest.(check bool) "hi folded to a literal" true
        (match l.hi with Ast.Int_lit _ -> true | _ -> false)
  | None -> Alcotest.fail "unrolled loop disappeared"

let test_simplify_dead_branches () =
  let s =
    Parser.parse_stmt
      "if 1 < 2 { x = 1.0; } else { x = 2.0; } if 2 < 1 { x = 3.0; }"
  in
  match Simplify.stmt s with
  | Ast.Assign (Scalar_lhs "x", Float_lit 1.0) -> ()
  | other ->
      Alcotest.failf "unexpected: %s" (Pretty.stmt_to_string other)

let test_simplify_empty_loop () =
  let s = Parser.parse_stmt "for i = 5 to 2 { x = 1.0; }" in
  Alcotest.(check bool) "removed" true (Simplify.stmt s = Ast.Seq []);
  let single = Parser.parse_stmt "for i = 3 to 3 { x = i * 1.0; }" in
  match Simplify.stmt single with
  | Ast.Assign (_, Binop (Mul, Int_lit 3, Float_lit 1.0)) -> ()
  | other -> Alcotest.failf "unexpected: %s" (Pretty.stmt_to_string other)

(* --- Property tests --- *)

let transform_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun f -> `Unroll ("k", 1 + f)) (int_bound 9);
        map (fun f -> `Unroll ("j", 1 + f)) (int_bound 5);
        map (fun f -> `Unroll ("i", 1 + f)) (int_bound 5);
        map (fun t -> `Jam ("i", 1 + t)) (int_bound 4);
        map (fun t -> `Jam ("j", 1 + t)) (int_bound 4);
        map2
          (fun a b -> `Tile [ ("i", 1 + a); ("j", 1 + b) ])
          (int_bound 7) (int_bound 7);
      ])

let apply_spec k spec =
  match spec with
  | `Unroll (index, factor) -> Transform.unroll ~index ~factor k
  | `Jam (index, factor) -> Transform.unroll_and_jam ~index ~factor k
  | `Tile spec -> Transform.tile_nest spec k

let spec_to_string spec =
  match spec with
  | `Unroll (i, f) -> Printf.sprintf "unroll %s %d" i f
  | `Jam (i, f) -> Printf.sprintf "jam %s %d" i f
  | `Tile l ->
      "tile "
      ^ String.concat ","
          (List.map (fun (i, t) -> Printf.sprintf "%s:%d" i t) l)

let prop_random_transform_pipelines =
  QCheck.Test.make ~name:"random transformation pipelines preserve semantics"
    ~count:60
    (QCheck.make
       ~print:(fun specs -> String.concat "; " (List.map spec_to_string specs))
       QCheck.Gen.(list_size (int_range 1 3) transform_gen))
    (fun specs ->
      let k = mm () in
      (* Apply specs in sequence; a spec may legitimately fail (loop renamed
         away by an earlier unroll) — treat failures as skips. *)
      let t =
        List.fold_left
          (fun acc spec ->
            match apply_spec acc spec with Ok k' -> k' | Error _ -> acc)
          k specs
      in
      (match Ast.validate t with Ok () -> true | Error _ -> false)
      &&
      let ra = run_with_init ~param_overrides:[ ("N", 7) ] k in
      let rb = run_with_init ~param_overrides:[ ("N", 7) ] t in
      arrays_equal ~eps:1e-9 ra rb)

let prop_simplify_preserves_semantics =
  QCheck.Test.make ~name:"simplify preserves kernel semantics" ~count:40
    (QCheck.make
       ~print:(fun specs -> String.concat "; " (List.map spec_to_string specs))
       QCheck.Gen.(list_size (int_range 1 3) transform_gen))
    (fun specs ->
      let k = mm () in
      let t =
        List.fold_left
          (fun acc spec ->
            match apply_spec acc spec with Ok k' -> k' | Error _ -> acc)
          k specs
      in
      let s = Simplify.kernel t in
      (match Ast.validate s with Ok () -> true | Error _ -> false)
      && arrays_equal
           (run_with_init ~param_overrides:[ ("N", 7) ] t)
           (run_with_init ~param_overrides:[ ("N", 7) ] s))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest [ prop_random_transform_pipelines ]
  in
  Alcotest.run "kernellang"
    [
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "associativity" `Quick test_parse_associativity;
          Alcotest.test_case "min/max/sqrt" `Quick test_parse_min_max_sqrt;
          Alcotest.test_case "kernel shape" `Quick test_parse_kernel_shape;
          Alcotest.test_case "comments and step" `Quick
            test_parse_comments_and_step;
          Alcotest.test_case "if conditions" `Quick test_parse_if_cond;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "mm" `Quick (test_roundtrip mm_src);
          Alcotest.test_case "jacobi" `Quick (test_roundtrip jacobi_src);
          Alcotest.test_case "triangular" `Quick
            (test_roundtrip triangular_src);
          Alcotest.test_case "transformed" `Quick test_roundtrip_transformed;
        ] );
      ( "interp",
        [
          Alcotest.test_case "mm matches reference" `Quick test_interp_mm;
          Alcotest.test_case "param override" `Quick
            test_interp_param_override;
          Alcotest.test_case "triangular" `Quick test_interp_triangular;
          Alcotest.test_case "scalar and if" `Quick test_interp_scalar_and_if;
          Alcotest.test_case "out of bounds" `Quick test_interp_out_of_bounds;
        ] );
      ( "transform",
        [
          Alcotest.test_case "unroll innermost exact" `Quick test_unroll_exact;
          Alcotest.test_case "unroll outer" `Quick test_unroll_outer_loop;
          Alcotest.test_case "unroll triangular" `Quick test_unroll_triangular;
          Alcotest.test_case "unroll composes" `Quick test_unroll_composes;
          Alcotest.test_case "unroll errors" `Quick test_unroll_errors;
          Alcotest.test_case "strip-mine" `Quick test_strip_mine;
          Alcotest.test_case "strip-mine name clash" `Quick
            test_strip_mine_name_clash;
          Alcotest.test_case "interchange" `Quick test_interchange;
          Alcotest.test_case "interchange reduction order" `Quick
            test_interchange_reduction_order;
          Alcotest.test_case "interchange not nested" `Quick
            test_interchange_not_nested;
          Alcotest.test_case "interchange triangular rejected" `Quick
            test_interchange_triangular_rejected;
          Alcotest.test_case "tile nest" `Quick test_tile_nest;
          Alcotest.test_case "tile nest partial" `Quick test_tile_nest_partial;
          Alcotest.test_case "tile nest beside a prefixed name" `Quick
            test_tile_nest_prefix_name;
          Alcotest.test_case "unroll copy names" `Quick test_unroll_copy_names;
          Alcotest.test_case "unroll-and-jam" `Quick test_unroll_and_jam;
          Alcotest.test_case "unroll-and-jam outer" `Quick
            test_unroll_and_jam_outer;
          Alcotest.test_case "unroll-and-jam unsafe" `Quick
            test_unroll_and_jam_unsafe;
          Alcotest.test_case "full recipe" `Quick test_full_recipe;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "mm statistics" `Quick test_analysis_mm;
          Alcotest.test_case "param override" `Quick
            test_analysis_param_override;
          Alcotest.test_case "triangular trips" `Quick
            test_analysis_triangular;
          Alcotest.test_case "unroll reduces iterations" `Quick
            test_analysis_unroll_reduces_iterations;
          Alcotest.test_case "code size grows" `Quick
            test_analysis_code_size_grows;
          Alcotest.test_case "stream view" `Quick test_analysis_stream_view;
          Alcotest.test_case "unrolled copies" `Quick
            test_analysis_unrolled_copies;
          Alcotest.test_case "repeated offset" `Quick
            test_analysis_repeated_offset;
          Alcotest.test_case "distinct offset classes" `Quick
            test_analysis_distinct_classes;
          Alcotest.test_case "indirect stream" `Quick
            test_analysis_indirect_stream;
          Alcotest.test_case "fractional divisor" `Quick
            test_analysis_fractional_divisor;
          Alcotest.test_case "non-finite factor" `Quick
            test_analysis_nonfinite_factor;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "expression folds" `Quick
            test_simplify_expr_folds;
          Alcotest.test_case "unrolled bounds fold" `Quick
            test_simplify_unrolled_bounds;
          Alcotest.test_case "dead branches" `Quick
            test_simplify_dead_branches;
          Alcotest.test_case "empty and single loops" `Quick
            test_simplify_empty_loop;
          QCheck_alcotest.to_alcotest prop_simplify_preserves_semantics;
        ] );
      ("properties", qsuite);
    ]
