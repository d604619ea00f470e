(* Lanczos approximation, g = 7, n = 9 coefficients (Boost/GSL standard). *)
let lanczos =
  [|
    0.99999999999980993;
    676.5203681218851;
    -1259.1392167224028;
    771.32342877765313;
    -176.61502916214059;
    12.507343278686905;
    -0.13857109526572012;
    9.9843695780195716e-6;
    1.5056327351493116e-7;
  |]

let rec log_gamma x =
  if x <= 0.0 then invalid_arg "Special.log_gamma: non-positive argument";
  if x < 0.5 then
    (* Reflection to keep the Lanczos series in its accurate range. *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1.0 -. x)
  else begin
    let x = x -. 1.0 in
    let acc = ref lanczos.(0) in
    for i = 1 to 8 do
      acc := !acc +. (lanczos.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. log (2.0 *. Float.pi))
    +. ((x +. 0.5) *. log t)
    -. t
    +. log !acc
  end

let log_beta a b = log_gamma a +. log_gamma b -. log_gamma (a +. b)

(* Abramowitz & Stegun 7.1.26 has only ~1e-7 accuracy; instead use the
   continued-fraction erfc (Numerical Recipes erfc via incomplete gamma is
   overkill) — here a high-accuracy rational Chebyshev fit (W. J. Cody). *)
let erfc x =
  let z = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.5 *. z)) in
  let poly =
    -.z *. z -. 1.26551223
    +. (t
        *. (1.00002368
            +. t
               *. (0.37409196
                   +. t
                      *. (0.09678418
                          +. t
                             *. (-0.18628806
                                 +. t
                                    *. (0.27886807
                                        +. t
                                           *. (-1.13520398
                                               +. t
                                                  *. (1.48851587
                                                      +. t
                                                         *. (-0.82215223
                                                             +. t
                                                                *. 0.17087277
                                                            )))))))))
  in
  let ans = t *. exp poly in
  if x >= 0.0 then ans else 2.0 -. ans

(* Lentz's algorithm for the continued fraction of I_x(a,b), as in
   Numerical Recipes [betacf]. *)
let betacf a b x =
  let max_iter = 200 in
  let eps = 3e-14 in
  let fpmin = 1e-300 in
  let qab = a +. b in
  let qap = a +. 1.0 in
  let qam = a -. 1.0 in
  let c = ref 1.0 in
  let d = ref (1.0 -. (qab *. x /. qap)) in
  if Float.abs !d < fpmin then d := fpmin;
  d := 1.0 /. !d;
  let h = ref !d in
  let m = ref 1 in
  let finished = ref false in
  while (not !finished) && !m <= max_iter do
    let mf = float_of_int !m in
    let m2 = 2.0 *. mf in
    let aa = mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)) in
    d := 1.0 +. (aa *. !d);
    if Float.abs !d < fpmin then d := fpmin;
    c := 1.0 +. (aa /. !c);
    if Float.abs !c < fpmin then c := fpmin;
    d := 1.0 /. !d;
    h := !h *. !d *. !c;
    let aa =
      -.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2))
    in
    d := 1.0 +. (aa *. !d);
    if Float.abs !d < fpmin then d := fpmin;
    c := 1.0 +. (aa /. !c);
    if Float.abs !c < fpmin then c := fpmin;
    d := 1.0 /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if Float.abs (del -. 1.0) < eps then finished := true;
    incr m
  done;
  !h

let incomplete_beta ~a ~b x =
  if a <= 0.0 || b <= 0.0 then
    invalid_arg "Special.incomplete_beta: a and b must be positive";
  if x < 0.0 || x > 1.0 then
    invalid_arg "Special.incomplete_beta: x out of [0,1]";
  if x = 0.0 then 0.0
  else if x = 1.0 then 1.0
  else begin
    let bt =
      exp
        ((a *. log x) +. (b *. log1p (-.x)) -. log_beta a b)
    in
    (* Use the symmetry relation to stay where the continued fraction
       converges quickly. *)
    if x < (a +. 1.0) /. (a +. b +. 2.0) then bt *. betacf a b x /. a
    else 1.0 -. (bt *. betacf b a (1.0 -. x) /. b)
  end
