(* Tests for the data-dependence analysis: classic textbook cases for
   direction vectors, parallelism, interchange and unroll-and-jam
   legality. *)

module Parser = Altune_kernellang.Parser
module Dependence = Altune_kernellang.Dependence
module Transform = Altune_kernellang.Transform

let k src = Parser.parse_kernel src

let mm =
  k
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

let test_mm_parallel_loops () =
  Alcotest.(check bool) "i parallel" true (Dependence.parallel mm "i");
  Alcotest.(check bool) "j parallel" true (Dependence.parallel mm "j");
  Alcotest.(check bool) "k carries the reduction" false
    (Dependence.parallel mm "k")

let test_mm_legality () =
  Alcotest.(check bool) "interchange i j" true
    (Dependence.interchange_legal mm ~outer:"i" ~inner:"j");
  Alcotest.(check bool) "interchange j k" true
    (Dependence.interchange_legal mm ~outer:"j" ~inner:"k");
  Alcotest.(check bool) "jam i" true (Dependence.jam_legal mm "i");
  Alcotest.(check bool) "jam j" true (Dependence.jam_legal mm "j")

let recurrence_j =
  (* The adi pattern: recurrence along j, independent along i. *)
  k
    {|
kernel r(N = 8) {
  array X[N][N];
  for i = 0 to N - 1 {
    for j = 1 to N - 1 {
      X[i][j] = X[i][j] + X[i][j - 1];
    }
  }
}
|}

let test_recurrence_direction () =
  let carried = Dependence.carried_by recurrence_j "j" in
  Alcotest.(check bool) "j carries" true (carried <> []);
  Alcotest.(check bool) "i parallel" true
    (Dependence.parallel recurrence_j "i");
  (* The flow dependence X[i][j] -> X[i][j-1] has distance +1 in j. *)
  let has_lt =
    List.exists
      (fun (d : Dependence.dependence) ->
        d.kind = Flow && List.assoc_opt "j" d.directions = Some Lt)
      carried
  in
  Alcotest.(check bool) "flow with j:<" true has_lt

let test_recurrence_jam_i_legal () =
  (* Jamming i interleaves independent rows: legal. *)
  Alcotest.(check bool) "jam i" true
    (Dependence.jam_legal recurrence_j "i");
  (* Jamming j would interleave the recurrence itself.  The dependence is
     (i:=, j:<); sinking j innermost keeps it forward: also legal (and
     indeed unrolling a recurrence loop is valid). *)
  Alcotest.(check bool) "interchange i j legal" true
    (Dependence.interchange_legal recurrence_j ~outer:"i" ~inner:"j")

let skewed =
  (* A[i][j] depends on A[i-1][j+1]: direction (<, >) — the classic case
     where interchange is ILLEGAL. *)
  k
    {|
kernel s(N = 8) {
  array A[N][N];
  for i = 1 to N - 1 {
    for j = 0 to N - 2 {
      A[i][j] = A[i - 1][j + 1] + 1.0;
    }
  }
}
|}

let test_skewed_interchange_illegal () =
  Alcotest.(check bool) "(<,>) blocks interchange" false
    (Dependence.interchange_legal skewed ~outer:"i" ~inner:"j");
  Alcotest.(check bool) "(<,>) blocks jam of i" false
    (Dependence.jam_legal skewed "i")

let test_skewed_transform_refused () =
  (match Transform.interchange ~outer:"i" ~inner:"j" skewed with
  | Error (Transform.Unsafe_interchange ("i", "j")) -> ()
  | Error e ->
      Alcotest.failf "wrong error: %s" (Transform.error_to_string e)
  | Ok _ -> Alcotest.fail "interchange must be refused");
  match Transform.unroll_and_jam ~index:"i" ~factor:2 skewed with
  | Error (Transform.Unsafe_jam _) -> ()
  | Error e ->
      Alcotest.failf "wrong error: %s" (Transform.error_to_string e)
  | Ok _ -> Alcotest.fail "jam must be refused"

let forward_only =
  (* A[i][j] reads A[i-1][j]: direction (<, =): interchange legal, jam of
     i legal (copies read rows finished... actually written by the same
     jammed body earlier in statement order). *)
  k
    {|
kernel f(N = 8) {
  array A[N][N];
  for i = 1 to N - 1 {
    for j = 0 to N - 1 {
      A[i][j] = A[i - 1][j] * 0.5;
    }
  }
}
|}

let test_forward_only () =
  Alcotest.(check bool) "interchange legal" true
    (Dependence.interchange_legal forward_only ~outer:"i" ~inner:"j");
  Alcotest.(check bool) "jam legal" true
    (Dependence.jam_legal forward_only "i");
  Alcotest.(check bool) "i carries" false
    (Dependence.parallel forward_only "i");
  Alcotest.(check bool) "j parallel" true
    (Dependence.parallel forward_only "j")

let test_ziv_independent () =
  let k0 =
    k
      {|
kernel z(N = 8) {
  array A[N];
  for i = 0 to N - 1 {
    A[0] = A[1] + 1.0;
  }
}
|}
  in
  (* A[0] write vs A[1] read never alias; but A[0] write-write across
     iterations is an output dependence carried by i. *)
  let deps = Dependence.dependences k0 in
  Alcotest.(check bool) "no flow between A[0] and A[1]" true
    (List.for_all
       (fun (d : Dependence.dependence) -> d.kind <> Anti || d.array <> "A"
        || List.assoc_opt "i" d.directions = Some Star)
       deps);
  Alcotest.(check bool) "output dependence carried" false
    (Dependence.parallel k0 "i")

let test_strided_disjoint () =
  (* A[2i] and A[2i+1] touch disjoint elements: the loop is parallel. *)
  let k0 =
    k
      {|
kernel d(N = 8) {
  array A[N][N];
  for i = 0 to 3 {
    A[2 * i][0] = A[2 * i + 1][0] + 1.0;
  }
}
|}
  in
  Alcotest.(check bool) "parallel" true (Dependence.parallel k0 "i")

let test_scalar_blocks_everything () =
  let k0 =
    k
      {|
kernel sc(N = 8) {
  array A[N][N];
  scalar acc;
  for i = 0 to N - 1 {
    for j = 0 to N - 1 {
      acc = acc + A[i][j];
    }
  }
}
|}
  in
  Alcotest.(check bool) "not parallel" false (Dependence.parallel k0 "i");
  (* Jamming i would interleave the scalar reduction across rows. *)
  Alcotest.(check bool) "jam refused" false (Dependence.jam_legal k0 "i")

let test_different_arrays_independent () =
  let k0 =
    k
      {|
kernel two(N = 8) {
  array A[N];
  array B[N];
  for i = 0 to N - 1 {
    A[i] = B[i] + 1.0;
  }
}
|}
  in
  Alcotest.(check bool) "parallel" true (Dependence.parallel k0 "i");
  Alcotest.(check bool) "no dependences at all" true
    (Dependence.dependences k0 = [])

let test_tiled_kernel_precision () =
  (* After tiling, point-loop Eq constraints must propagate to tile loops
     so tiled recipes stay legal. *)
  let tiled =
    match
      Transform.tile_nest [ ("i", 4); ("j", 4) ] recurrence_j
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "tiling failed: %s" (Transform.error_to_string e)
  in
  (* The i-direction stays parallel in the tiled form. *)
  Alcotest.(check bool) "tiled i still parallel" true
    (Dependence.parallel tiled "i")

let test_pp_dependence () =
  let deps = Dependence.dependences recurrence_j in
  Alcotest.(check bool) "printable" true
    (List.for_all
       (fun d ->
         String.length (Format.asprintf "%a" Dependence.pp_dependence d) > 0)
       deps)

let () =
  Alcotest.run "dependence"
    [
      ( "mm",
        [
          Alcotest.test_case "parallel loops" `Quick test_mm_parallel_loops;
          Alcotest.test_case "legality" `Quick test_mm_legality;
        ] );
      ( "directions",
        [
          Alcotest.test_case "recurrence direction" `Quick
            test_recurrence_direction;
          Alcotest.test_case "recurrence jam" `Quick
            test_recurrence_jam_i_legal;
          Alcotest.test_case "skewed illegal" `Quick
            test_skewed_interchange_illegal;
          Alcotest.test_case "skewed transform refused" `Quick
            test_skewed_transform_refused;
          Alcotest.test_case "forward only" `Quick test_forward_only;
        ] );
      ( "tests",
        [
          Alcotest.test_case "ziv" `Quick test_ziv_independent;
          Alcotest.test_case "strided disjoint" `Quick test_strided_disjoint;
          Alcotest.test_case "scalar blocks" `Quick
            test_scalar_blocks_everything;
          Alcotest.test_case "different arrays" `Quick
            test_different_arrays_independent;
          Alcotest.test_case "tiled precision" `Quick
            test_tiled_kernel_precision;
          Alcotest.test_case "printer" `Quick test_pp_dependence;
        ] );
    ]
