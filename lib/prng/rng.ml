type t = {
  mutable s0 : int64;
  mutable s1 : int64;
  mutable s2 : int64;
  mutable s3 : int64;
  mutable spare : float;
  (* Cached second variate of the Marsaglia polar pair; nan when empty. *)
  mutable has_spare : bool;
}

(* SplitMix64 is used only to expand a seed into the 256-bit xoshiro state,
   guaranteeing a non-zero, well-mixed starting point. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let st = ref (Int64.of_int seed) in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  { s0; s1; s2; s3; spare = nan; has_spare = false }

type seed_part = I of int | S of string

(* One SplitMix64-style absorption round: xor in the block, advance by the
   golden gamma, then run the full finalizer.  Running the finalizer per
   block (rather than once at the end) keeps short, similar inputs — the
   common case for (tag, repetition, benchmark) keys — far apart. *)
let mix64 h x =
  let open Int64 in
  let z = add (logxor h x) 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let derive ~seed parts =
  (* Domain-separate the two part constructors and prefix strings with
     their length, so e.g. [S "a"; S ""] and [S ""; S "a"] differ and an
     int can never collide with a string of the same bits. *)
  let h = ref (mix64 (Int64.of_int seed) 0x64657269766564L (* "derived" *)) in
  List.iter
    (fun part ->
      match part with
      | I i ->
          h := mix64 !h 1L;
          h := mix64 !h (Int64.of_int i)
      | S s ->
          h := mix64 !h 2L;
          h := mix64 !h (Int64.of_int (String.length s));
          String.iter (fun c -> h := mix64 !h (Int64.of_int (Char.code c))) s)
    parts;
  (* Top 62 bits: OCaml's native int keeps 63, so this stays positive. *)
  Int64.to_int (Int64.shift_right_logical !h 2)

let copy t = { t with s0 = t.s0 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256** step. *)
let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let st = ref (bits64 t) in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  { s0; s1; s2; s3; spare = nan; has_spare = false }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let rec draw () =
    let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then draw () else v
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let uniform t =
  (* 53 top bits, as in the reference xoshiro double conversion. *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  r *. 0x1.0p-53

let float t bound = bound *. uniform t
let bernoulli t p = uniform t < p

let normal ?(mu = 0.0) ?(sigma = 1.0) t =
  if t.has_spare then begin
    t.has_spare <- false;
    mu +. (sigma *. t.spare)
  end
  else begin
    let rec polar () =
      let u = (2.0 *. uniform t) -. 1.0 in
      let v = (2.0 *. uniform t) -. 1.0 in
      let s = (u *. u) +. (v *. v) in
      if s >= 1.0 || s = 0.0 then polar ()
      else begin
        let m = sqrt (-2.0 *. log s /. s) in
        t.spare <- v *. m;
        t.has_spare <- true;
        u *. m
      end
    in
    mu +. (sigma *. polar ())
  end

let lognormal ?(mu = 0.0) ?(sigma = 1.0) t = exp (normal ~mu ~sigma t)

let exponential ?(rate = 1.0) t =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  -.log1p (-.uniform t) /. rate

(* Marsaglia & Tsang (2000).  For shape < 1 we boost via the standard
   U^(1/shape) trick. *)
let rec gamma ~shape ~scale t =
  if shape <= 0.0 || scale <= 0.0 then
    invalid_arg "Rng.gamma: shape and scale must be positive";
  if shape < 1.0 then
    let g = gamma ~shape:(shape +. 1.0) ~scale t in
    g *. (uniform t ** (1.0 /. shape))
  else begin
    let d = shape -. (1.0 /. 3.0) in
    let c = 1.0 /. sqrt (9.0 *. d) in
    let rec draw () =
      let x = normal t in
      let v = 1.0 +. (c *. x) in
      if v <= 0.0 then draw ()
      else begin
        let v3 = v *. v *. v in
        let u = uniform t in
        let x2 = x *. x in
        if u < 1.0 -. (0.0331 *. x2 *. x2) then d *. v3
        else if log u < (0.5 *. x2) +. (d *. (1.0 -. v3 +. log v3)) then
          d *. v3
        else draw ()
      end
    in
    scale *. draw ()
  end

let chi_square ~df t =
  if df <= 0.0 then invalid_arg "Rng.chi_square: df must be positive";
  gamma ~shape:(df /. 2.0) ~scale:2.0 t

let student_t ~df t =
  if df <= 0.0 then invalid_arg "Rng.student_t: df must be positive";
  normal t /. sqrt (chi_square ~df t /. df)

let beta ~a ~b t =
  let x = gamma ~shape:a ~scale:1.0 t in
  let y = gamma ~shape:b ~scale:1.0 t in
  x /. (x +. y)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  if k < 0 then invalid_arg "Rng.sample_without_replacement: negative k";
  (* Partial Fisher-Yates over an index array; O(n) space, O(n + k) time,
     fine for the candidate-pool sizes used here. *)
  let idx = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.sub idx 0 k

(* Defined last: the labels shadow [t]'s mutable fields of the same name,
   so everything above keeps resolving them against [t]. *)
type state = {
  s0 : int64;
  s1 : int64;
  s2 : int64;
  s3 : int64;
  spare : float;
  has_spare : bool;
}

let capture (t : t) =
  {
    s0 = t.s0;
    s1 = t.s1;
    s2 = t.s2;
    s3 = t.s3;
    spare = t.spare;
    has_spare = t.has_spare;
  }

let restore (s : state) : t =
  {
    s0 = s.s0;
    s1 = s.s1;
    s2 = s.s2;
    s3 = s.s3;
    spare = s.spare;
    has_spare = s.has_spare;
  }
