(* Tests for the measurement-noise simulation. *)

module Noise = Altune_noise.Noise
module Rng = Altune_prng.Rng
module Welford = Altune_stats.Welford

(* Three fixture stacks.  Near-noiseless: 0.2% Gaussian only. *)
let quiet = Noise.create [ Noise.Gaussian_rel 0.002 ]

(* 1% Gaussian, occasional bursts, 8 layout buckets at ±2%, slow 1%
   drift: a lightly loaded desktop. *)
let standard =
  Noise.create
    [
      Noise.Gaussian_rel 0.01;
      Noise.Burst { probability = 0.02; mu = -2.5; sigma = 0.8 };
      Noise.Layout { buckets = 8; amplitude = 0.02 };
      Noise.Drift { period = 200.0; amplitude = 0.01 };
    ]

(* A heavily loaded multi-user machine: bigger everything. *)
let noisy =
  Noise.create
    [
      Noise.Gaussian_rel 0.05;
      Noise.Burst { probability = 0.15; mu = -1.2; sigma = 1.0 };
      Noise.Layout { buckets = 16; amplitude = 0.06 };
      Noise.Drift { period = 80.0; amplitude = 0.04 };
    ]

let sample_stats ?(n = 20_000) model ~true_value =
  let rng = Rng.create ~seed:9 in
  let acc = ref Welford.empty in
  for run_index = 1 to n do
    acc :=
      Welford.add !acc (Noise.sample model ~rng ~run_index ~true_value)
  done;
  !acc

let test_positive () =
  let rng = Rng.create ~seed:1 in
  List.iter
    (fun model ->
      for run_index = 1 to 2000 do
        let y = Noise.sample model ~rng ~run_index ~true_value:2.0 in
        if y <= 0.0 then Alcotest.failf "non-positive sample %g" y
      done)
    [ quiet; standard; noisy ]

let test_gaussian_moments () =
  let model = Noise.create [ Noise.Gaussian_rel 0.05 ] in
  let s = sample_stats model ~true_value:10.0 in
  Alcotest.(check (float 0.02)) "mean preserved" 10.0 (Welford.mean s);
  Alcotest.(check (float 0.02)) "std = 5% of value" 0.5 (Welford.std s)

let test_unbiased_when_quiet () =
  let s = sample_stats quiet ~true_value:1.0 in
  Alcotest.(check (float 0.001)) "mean ~ true" 1.0 (Welford.mean s)

let test_burst_right_tail () =
  let model =
    Noise.create [ Noise.Burst { probability = 0.2; mu = 0.0; sigma = 0.5 } ]
  in
  let s = sample_stats model ~true_value:1.0 in
  (* Bursts only ever slow a run down. *)
  Alcotest.(check bool) "mean above true" true (Welford.mean s > 1.0)

let test_layout_bounded_and_deterministic () =
  let model = Noise.create [ Noise.Layout { buckets = 4; amplitude = 0.1 } ] in
  let rng = Rng.create ~seed:5 in
  let values = Hashtbl.create 8 in
  for run_index = 1 to 5000 do
    let y = Noise.sample model ~rng ~run_index ~true_value:1.0 in
    if y < 0.9 -. 1e-9 || y > 1.1 +. 1e-9 then
      Alcotest.failf "layout factor out of bounds: %g" y;
    Hashtbl.replace values (Printf.sprintf "%.12f" y) ()
  done;
  (* Only [buckets] distinct factors can occur. *)
  Alcotest.(check bool)
    (Printf.sprintf "at most 4 distinct factors, got %d"
       (Hashtbl.length values))
    true
    (Hashtbl.length values <= 4)

let test_drift_depends_on_run_index () =
  let model =
    Noise.create [ Noise.Drift { period = 40.0; amplitude = 0.1 } ]
  in
  let rng = Rng.create ~seed:1 in
  (* Drift is deterministic given run_index: peak vs trough differ. *)
  let peak = Noise.sample model ~rng ~run_index:10 ~true_value:1.0 in
  let trough = Noise.sample model ~rng ~run_index:30 ~true_value:1.0 in
  Alcotest.(check (float 1e-9)) "peak" 1.1 peak;
  Alcotest.(check (float 1e-9)) "trough" 0.9 trough

let test_scale_gaussian () =
  let model = Noise.create [ Noise.Gaussian_rel 0.01 ] in
  let scaled = Noise.scale_gaussian model 5.0 in
  let s = sample_stats scaled ~true_value:1.0 in
  Alcotest.(check (float 0.005)) "sigma scaled" 0.05 (Welford.std s);
  (* Non-Gaussian channels are untouched. *)
  match Noise.channels (Noise.scale_gaussian standard 2.0) with
  | channels ->
      let bursts =
        List.filter (function Noise.Burst _ -> true | _ -> false) channels
      in
      Alcotest.(check int) "burst preserved" 1 (List.length bursts)

let test_validation () =
  let invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Noise.create [ Noise.Gaussian_rel (-0.1) ]);
  invalid (fun () ->
      Noise.create [ Noise.Burst { probability = 1.5; mu = 0.0; sigma = 1.0 } ]);
  invalid (fun () ->
      Noise.create [ Noise.Layout { buckets = 0; amplitude = 0.1 } ]);
  invalid (fun () ->
      Noise.create [ Noise.Drift { period = 0.0; amplitude = 0.1 } ])

let prop_sample_positive =
  QCheck.Test.make ~name:"samples always positive" ~count:200
    QCheck.(pair small_int (float_range 1e-6 100.0))
    (fun (seed, true_value) ->
      let rng = Rng.create ~seed in
      let y = Noise.sample noisy ~rng ~run_index:1 ~true_value in
      y > 0.0)

let () =
  Alcotest.run "noise"
    [
      ( "channels",
        [
          Alcotest.test_case "positivity" `Quick test_positive;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "quiet unbiased" `Quick test_unbiased_when_quiet;
          Alcotest.test_case "burst right tail" `Quick test_burst_right_tail;
          Alcotest.test_case "layout bounded deterministic" `Quick
            test_layout_bounded_and_deterministic;
          Alcotest.test_case "drift periodic" `Quick
            test_drift_depends_on_run_index;
          Alcotest.test_case "scale gaussian" `Quick test_scale_gaussian;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_sample_positive ] );
    ]
