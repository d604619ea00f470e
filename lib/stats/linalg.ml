let cholesky a =
  let n = Array.length a in
  let l = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let s = ref a.(i).(j) in
      for k = 0 to j - 1 do
        s := !s -. (l.(i).(k) *. l.(j).(k))
      done;
      if i = j then begin
        if !s <= 0.0 then
          failwith
            (Printf.sprintf
               "Linalg.cholesky: matrix not positive definite (pivot %d of \
                %d is %g after elimination; expected > 0)"
               i n !s);
        l.(i).(i) <- sqrt !s
      end
      else l.(i).(j) <- !s /. l.(j).(j)
    done
  done;
  l

let solve_lower l b =
  let n = Array.length b in
  let x = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = ref b.(i) in
    for k = 0 to i - 1 do
      s := !s -. (l.(i).(k) *. x.(k))
    done;
    x.(i) <- !s /. l.(i).(i)
  done;
  x

let solve_upper_transposed l b =
  let n = Array.length b in
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let s = ref b.(i) in
    for k = i + 1 to n - 1 do
      s := !s -. (l.(k).(i) *. x.(k))
    done;
    x.(i) <- !s /. l.(i).(i)
  done;
  x

let cholesky_solve l b = solve_upper_transposed l (solve_lower l b)

let dot a b =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Linalg.dot: length mismatch";
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s
