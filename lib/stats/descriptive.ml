let check_nonempty name a =
  if Array.length a = 0 then invalid_arg ("Descriptive." ^ name ^ ": empty")

let mean a =
  check_nonempty "mean" a;
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let variance a =
  check_nonempty "variance" a;
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let m = mean a in
    let acc = ref 0.0 in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      a;
    !acc /. float_of_int (n - 1)
  end

let std a = sqrt (variance a)

let min a =
  check_nonempty "min" a;
  Array.fold_left Float.min a.(0) a

let max a =
  check_nonempty "max" a;
  Array.fold_left Float.max a.(0) a

let quantile a p =
  check_nonempty "quantile" a;
  if p < 0.0 || p > 1.0 then invalid_arg "Descriptive.quantile: p out of [0,1]";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let h = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = h -. float_of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let median a = quantile a 0.5

let geometric_mean a =
  check_nonempty "geometric_mean" a;
  let acc = ref 0.0 in
  Array.iter
    (fun x ->
      if x <= 0.0 then
        invalid_arg "Descriptive.geometric_mean: non-positive entry";
      acc := !acc +. log x)
    a;
  exp (!acc /. float_of_int (Array.length a))

let summary a = (min a, mean a, max a)
