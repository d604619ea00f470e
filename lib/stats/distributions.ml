let sqrt2 = sqrt 2.0

let normal_cdf ?(mu = 0.0) ?(sigma = 1.0) x =
  0.5 *. Special.erfc (-.(x -. mu) /. (sigma *. sqrt2))

(* Acklam's inverse normal CDF. *)
let normal_quantile p =
  if p <= 0.0 || p >= 1.0 then
    invalid_arg "Distributions.normal_quantile: p out of (0,1)";
  let a =
    [|
      -3.969683028665376e+01;
      2.209460984245205e+02;
      -2.759285104469687e+02;
      1.383577518672690e+02;
      -3.066479806614716e+01;
      2.506628277459239e+00;
    |]
  in
  let b =
    [|
      -5.447609879822406e+01;
      1.615858368580409e+02;
      -1.556989798598866e+02;
      6.680131188771972e+01;
      -1.328068155288572e+01;
    |]
  in
  let c =
    [|
      -7.784894002430293e-03;
      -3.223964580411365e-01;
      -2.400758277161838e+00;
      -2.549732539343734e+00;
      4.374664141464968e+00;
      2.938163982698783e+00;
    |]
  in
  let d =
    [|
      7.784695709041462e-03;
      3.224671290700398e-01;
      2.445134137142996e+00;
      3.754408661907416e+00;
    |]
  in
  let p_low = 0.02425 in
  let x =
    if p < p_low then begin
      let q = sqrt (-2.0 *. log p) in
      let num =
        (((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q
        +. c.(4))
        *. q
        +. c.(5)
      in
      let den =
        ((((d.(0) *. q) +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0
      in
      num /. den
    end
    else if p <= 1.0 -. p_low then begin
      let q = p -. 0.5 in
      let r = q *. q in
      ((((((a.(0) *. r) +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4))
       *. r
      +. a.(5))
      *. q
      /. (((((((b.(0) *. r) +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r
           +. b.(4))
           *. r)
         +. 1.0)
    end
    else begin
      let q = sqrt (-2.0 *. log1p (-.p)) in
      -.((((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q
         +. c.(4))
         *. q
        +. c.(5))
      /. (((((d.(0) *. q) +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
    end
  in
  (* One step of Halley refinement pushes the error to ~1e-15. *)
  let e = normal_cdf x -. p in
  let u = e *. sqrt (2.0 *. Float.pi) *. exp (x *. x /. 2.0) in
  x -. (u /. (1.0 +. (x *. u /. 2.0)))

let student_t_cdf ~df x =
  if df <= 0.0 then invalid_arg "Distributions.student_t_cdf: df <= 0";
  let ib =
    Special.incomplete_beta ~a:(df /. 2.0) ~b:0.5 (df /. (df +. (x *. x)))
  in
  if x >= 0.0 then 1.0 -. (0.5 *. ib) else 0.5 *. ib

let student_t_quantile ~df p =
  if p <= 0.0 || p >= 1.0 then
    invalid_arg "Distributions.student_t_quantile: p out of (0,1)";
  if df <= 0.0 then invalid_arg "Distributions.student_t_quantile: df <= 0";
  if p = 0.5 then 0.0
  else if df = 1.0 then tan (Float.pi *. (p -. 0.5))
  else if df = 2.0 then
    let a = (2.0 *. p) -. 1.0 in
    a *. sqrt (2.0 /. (1.0 -. (a *. a)))
  else begin
    (* Bracket from the normal quantile (the t quantile always has larger
       magnitude), then bisect. *)
    let target = if p > 0.5 then p else 1.0 -. p in
    let lo = ref 0.0 in
    let hi = ref (Float.max 1.0 (2.0 *. normal_quantile target)) in
    while student_t_cdf ~df !hi < target do
      hi := !hi *. 2.0
    done;
    for _ = 1 to 200 do
      let mid = 0.5 *. (!lo +. !hi) in
      if student_t_cdf ~df mid < target then lo := mid else hi := mid
    done;
    let q = 0.5 *. (!lo +. !hi) in
    if p > 0.5 then q else -.q
  end

let log_student_t_pdf ?(mu = 0.0) ?(scale = 1.0) ~df x =
  if scale <= 0.0 then
    invalid_arg "Distributions.log_student_t_pdf: scale <= 0";
  let z = (x -. mu) /. scale in
  Special.log_gamma ((df +. 1.0) /. 2.0)
  -. Special.log_gamma (df /. 2.0)
  -. (0.5 *. log (df *. Float.pi))
  -. log scale
  -. ((df +. 1.0) /. 2.0 *. log1p (z *. z /. df))
