(* Small helpers shared by the benchmark's parent and child processes:
   a monotonic clock, sample quantiles, JSON accessors and digests. *)

module Json = Altune_obs.Json
module Trace = Altune_obs.Trace

let now () = Int64.to_float (Trace.now_ns ()) /. 1e9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Harrell-Davis estimate of the [q]-quantile: a Beta-weighted average of
   all order statistics, far less noisy than the one or two order
   statistics of the textbook estimate on the few dozen sessions a run
   yields.  [nan] on an empty sample. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else begin
    let m = float_of_int (n + 1) in
    let cdf x =
      Altune_stats.Special.incomplete_beta ~a:(q *. m) ~b:((1.0 -. q) *. m) x
    in
    let acc = ref 0.0 and prev = ref 0.0 in
    for i = 1 to n do
      let c = cdf (float_of_int i /. float_of_int n) in
      acc := !acc +. ((c -. !prev) *. a.(i - 1));
      prev := c
    done;
    !acc
  end

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs

(* Number of samples strictly above a sample's [q]-quantile: the
   benchmark reports a percentile only with this count next to it. *)
let beyond q xs =
  let v = quantile q xs in
  List.length (List.filter (fun x -> x > v) xs)

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let digest s = Digest.to_hex (Digest.string s)

(* Exact, platform-independent rendering of a float for digests. *)
let hex f = Printf.sprintf "%h" f

let member k j = Json.member k j

let get_float k j =
  Option.value ~default:0.0 (Option.bind (member k j) Json.to_float_opt)

let get_int k j =
  Option.value ~default:0 (Option.bind (member k j) Json.to_int_opt)

let get_string k j =
  Option.value ~default:"" (Option.bind (member k j) Json.to_string_opt)

let get_bool k j =
  Option.value ~default:false (Option.bind (member k j) Json.to_bool_opt)

let get_list k j =
  match member k j with Some (Json.List l) -> l | _ -> []

let get_floats k j = List.filter_map Json.to_float_opt (get_list k j)

let get_obj k j = match member k j with Some (Json.Obj o) -> o | _ -> []
let floats xs = Json.List (List.map (fun x -> Json.Float x) xs)
let heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1e6
