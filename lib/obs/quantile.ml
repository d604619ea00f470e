(* DDSketch-style log-bucket quantile sketch over a fixed key range.

   Bucket key of a value v is floor (log v / log gamma); the bucket's
   representative value is the log-midpoint 2*gamma^k / (gamma + 1),
   which is within a factor (1 +/- alpha) of every value in the bucket.
   Keys are clamped to a fixed window covering [1e-9, 1e9]; values at or
   below the bottom of the window (including zero, negatives and NaN)
   land in a dedicated underflow bucket that ranks below everything. *)

type t = {
  buckets : int Atomic.t array;  (* buckets.(i) has key [key_min + i] *)
  under : int Atomic.t;
  q_count : int Atomic.t;
  q_sum : float Atomic.t;
  q_max : float Atomic.t;
  q_min : float Atomic.t;
}

let alpha = 0.02
let log_gamma = Float.log ((1.0 +. alpha) /. (1.0 -. alpha))
let range_lo = 1e-9
let range_hi = 1e9
let key_of v = int_of_float (Float.floor (Float.log v /. log_gamma))
let key_min = key_of range_lo
let key_max = key_of range_hi + 1

let create () =
  {
    buckets = Array.init (key_max - key_min + 1) (fun _ -> Atomic.make 0);
    under = Atomic.make 0;
    q_count = Atomic.make 0;
    q_sum = Atomic.make 0.0;
    q_max = Atomic.make neg_infinity;
    q_min = Atomic.make infinity;
  }

let count t = Atomic.get t.q_count
let sum t = Atomic.get t.q_sum
let max_value t = Atomic.get t.q_max
let min_value t = Atomic.get t.q_min

let cas_update cell better v =
  let rec go () =
    let old = Atomic.get cell in
    if better v old && not (Atomic.compare_and_set cell old v) then go ()
  in
  go ()

let add t v =
  (if Float.is_finite v && v > range_lo then begin
     let i = key_of v - key_min in
     let i = if i < 0 then 0 else min i (Array.length t.buckets - 1) in
     Atomic.incr t.buckets.(i)
   end
   else Atomic.incr t.under);
  Atomic.incr t.q_count;
  if Float.is_finite v then begin
    let rec cas_add () =
      let old = Atomic.get t.q_sum in
      if not (Atomic.compare_and_set t.q_sum old (old +. v)) then cas_add ()
    in
    cas_add ();
    cas_update t.q_max (fun a b -> a > b) v;
    cas_update t.q_min (fun a b -> a < b) v
  end

(* Representative value of bucket key k: the log-midpoint of its range,
   2 * gamma^k / (gamma + 1) = exp (k * log_gamma) * (2 / (gamma + 1)). *)
let bucket_value i =
  let k = float_of_int (key_min + i) in
  let gamma = Float.exp log_gamma in
  Float.exp (k *. log_gamma) *. (2.0 *. gamma /. (gamma +. 1.0))

let quantile t q =
  let n = count t in
  if n = 0 then Float.nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    let est =
      let cum = ref (Atomic.get t.under) in
      if rank <= !cum then min_value t
      else begin
        let res = ref (max_value t) in
        (try
           Array.iteri
             (fun i b ->
               cum := !cum + Atomic.get b;
               if rank <= !cum then begin
                 res := bucket_value i;
                 raise Exit
               end)
             t.buckets
         with Exit -> ());
        !res
      end
    in
    (* Clamping into the observed range never hurts: the true quantile
       lies inside it, so pulling the estimate in reduces error. *)
    Float.max (min_value t) (Float.min est (max_value t))
  end

let summary_json t =
  let n = count t in
  if n = 0 then Json.Obj [ ("count", Json.Int 0); ("sum", Json.Float 0.0) ]
  else
    Json.Obj
      [
        ("count", Json.Int n);
        ("max", Json.Float (max_value t));
        ("min", Json.Float (min_value t));
        ("p50", Json.Float (quantile t 0.5));
        ("p90", Json.Float (quantile t 0.9));
        ("p99", Json.Float (quantile t 0.99));
        ("sum", Json.Float (sum t));
      ]
