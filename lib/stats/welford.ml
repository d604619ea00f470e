type t = { n : int; mean : float; m2 : float }

let empty = { n = 0; mean = 0.0; m2 = 0.0 }
let singleton x = { n = 1; mean = x; m2 = 0.0 }

let add t x =
  let n = t.n + 1 in
  let delta = x -. t.mean in
  let mean = t.mean +. (delta /. float_of_int n) in
  let m2 = t.m2 +. (delta *. (x -. mean)) in
  { n; mean; m2 }

let count t = t.n
let mean t = if t.n = 0 then nan else t.mean
let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
let std t = sqrt (variance t)
let sum t = t.mean *. float_of_int t.n

let std_error t =
  if t.n = 0 then infinity else std t /. sqrt (float_of_int t.n)

let ci_halfwidth ?(level = 0.95) t =
  if t.n < 2 then infinity
  else begin
    let df = float_of_int (t.n - 1) in
    let q =
      Distributions.student_t_quantile ~df (1.0 -. ((1.0 -. level) /. 2.0))
    in
    q *. std_error t
  end

let ci_over_mean ?(level = 0.95) t =
  if t.n < 2 || t.mean = 0.0 then infinity
  else Float.abs (ci_halfwidth ~level t /. t.mean)

let of_array a = Array.fold_left add empty a
