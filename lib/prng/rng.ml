(* The four xoshiro256** words live little-endian in [words] at byte
   offsets 0, 8, 16 and 24, so a draw stores them unboxed. *)
type t = {
  words : Bytes.t;
  mutable spare : float;
  (* Cached second variate of the Marsaglia polar pair; nan when empty. *)
  mutable has_spare : bool;
}

let of_words s0 s1 s2 s3 ~spare ~has_spare =
  let words = Bytes.create 32 in
  Bytes.set_int64_le words 0 s0;
  Bytes.set_int64_le words 8 s1;
  Bytes.set_int64_le words 16 s2;
  Bytes.set_int64_le words 24 s3;
  { words; spare; has_spare }

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
  of_words s0 s1 s2 s3 ~spare:nan ~has_spare:false

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

let copy t = { t with words = Bytes.copy t.words }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256** step. *)
let[@inline] bits64 t =
  let open Int64 in
  let w = t.words in
  let s0 = Bytes.get_int64_le w 0 and s1 = Bytes.get_int64_le w 8 in
  let s2 = Bytes.get_int64_le w 16 and s3 = Bytes.get_int64_le w 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  Bytes.set_int64_le w 8 (logxor s1 s2);
  Bytes.set_int64_le w 0 (logxor s0 s3);
  Bytes.set_int64_le w 16 (logxor s2 tmp);
  Bytes.set_int64_le w 24 (rotl s3 45);
  result

let split t =
  let st = ref (bits64 t) in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  of_words s0 s1 s2 s3 ~spare:nan ~has_spare:false

(* Rejection sampling on the top bits to avoid modulo bias. *)
let rec draw_below t bound =
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  let v = r mod bound in
  if r - v + (bound - 1) < 0 then draw_below t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw_below t bound

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

type state = {
  s0 : int64;
  s1 : int64;
  s2 : int64;
  s3 : int64;
  spare : float;
  has_spare : bool;
}

let capture (t : t) =
  let w = t.words in
  {
    s0 = Bytes.get_int64_le w 0;
    s1 = Bytes.get_int64_le w 8;
    s2 = Bytes.get_int64_le w 16;
    s3 = Bytes.get_int64_le w 24;
    spare = t.spare;
    has_spare = t.has_spare;
  }

let restore (s : state) : t =
  of_words s.s0 s.s1 s.s2 s.s3 ~spare:s.spare ~has_spare:s.has_spare
