module Ast = Altune_kernellang.Ast
module Transform = Altune_kernellang.Transform
module Verify = Altune_kernellang.Verify
module Analysis = Altune_kernellang.Analysis
module Machine = Altune_machine.Machine
module Noise = Altune_noise.Noise
module Rng = Altune_prng.Rng
module Distributions = Altune_stats.Distributions
module Pool = Altune_exec.Pool
module Memo = Altune_exec.Memo

type knob =
  | Tile of { loop : string; sizes : int array }
  | Jam of { loop : string; max_factor : int }
  | Unroll of { loop : string; max_factor : int }

let knob_cardinality = function
  | Tile { sizes; _ } -> Array.length sizes
  | Jam { max_factor; _ } | Unroll { max_factor; _ } -> max_factor

let knob_name = function
  | Tile { loop; _ } -> "tile:" ^ loop
  | Jam { loop; _ } -> "jam:" ^ loop
  | Unroll { loop; _ } -> "unroll:" ^ loop

type spec = {
  knobs : knob list;
  tile_nests : string list list;
      (* Loops tiled together as one rectangular nest, outermost first. *)
  base_sigma : float;  (* mean relative noise before the field *)
  field_sd : float;  (* lognormal spread of the per-config noise field *)
  extra_channels : Noise.channel list;
}

let tile_sizes = [| 1; 2; 4; 8; 16; 32; 64 |]
let small_tiles = [| 1; 2; 4; 8; 16; 32 |]

(* Per-benchmark tunable spaces.  Knob order defines both the
   configuration layout and the feature order.  Jam knobs are offered only
   on loops where unroll-and-jam is legal (perfect nest, writes indexed by
   the jammed loop); the test suite checks totality over random configs. *)
let specs =
  [
    ( "adi",
      {
        knobs =
          [
            Tile { loop = "i1"; sizes = small_tiles };
            Tile { loop = "j1"; sizes = small_tiles };
            Tile { loop = "i2"; sizes = small_tiles };
            Tile { loop = "j2"; sizes = small_tiles };
            Jam { loop = "i1"; max_factor = 8 };
            Unroll { loop = "i2"; max_factor = 8 };
            Unroll { loop = "j1"; max_factor = 30 };
            Unroll { loop = "j2"; max_factor = 30 };
          ];
        tile_nests = [ [ "i1"; "j1" ]; [ "i2"; "j2" ] ];
        base_sigma = 4.0e-3;
        field_sd = 1.0;
        (* adi is the paper's one counter-example: its noise is dominated
           by layout effects that persist within a run but differ across
           runs, so a single observation carries a bias only averaging
           removes.  A strong layout channel reproduces that: the adaptive
           plan's sparse samples hit a floor the 35-observation baseline
           averages away. *)
        extra_channels =
          [ Noise.Layout { buckets = 6; amplitude = 0.04 } ];
      } );
    ( "atax",
      {
        knobs =
          [
            Tile { loop = "j1"; sizes = tile_sizes };
            Tile { loop = "j2"; sizes = tile_sizes };
            Unroll { loop = "j1"; max_factor = 32 };
            Unroll { loop = "j2"; max_factor = 32 };
            Unroll { loop = "i1"; max_factor = 8 };
            Unroll { loop = "i2"; max_factor = 8 };
          ];
        tile_nests = [ [ "j1" ]; [ "j2" ] ];
        base_sigma = 4.0e-3;
        field_sd = 1.0;
        extra_channels = [];
      } );
    ( "bicgkernel",
      {
        knobs =
          [
            Tile { loop = "j1"; sizes = tile_sizes };
            Tile { loop = "j2"; sizes = tile_sizes };
            Unroll { loop = "j1"; max_factor = 32 };
            Unroll { loop = "j2"; max_factor = 32 };
            Unroll { loop = "i2"; max_factor = 8 };
          ];
        tile_nests = [ [ "j1" ]; [ "j2" ] ];
        base_sigma = 2.7e-3;
        field_sd = 1.1;
        extra_channels = [];
      } );
    ( "correlation",
      {
        knobs =
          [
            Tile { loop = "j3"; sizes = small_tiles };
            Tile { loop = "k3"; sizes = small_tiles };
            Unroll { loop = "j1"; max_factor = 16 };
            Unroll { loop = "j2"; max_factor = 16 };
            Unroll { loop = "k3"; max_factor = 32 };
            Unroll { loop = "j3"; max_factor = 8 };
          ];
        tile_nests = [ [ "j3" ]; [ "k3" ] ];
        base_sigma = 5.0e-2;
        field_sd = 0.9;
        extra_channels =
          [ Noise.Burst { probability = 0.05; mu = -1.5; sigma = 1.0 } ];
      } );
    ( "dgemv3",
      {
        knobs =
          [
            Tile { loop = "j1"; sizes = tile_sizes };
            Tile { loop = "j2"; sizes = tile_sizes };
            Tile { loop = "j3"; sizes = tile_sizes };
            Unroll { loop = "j1"; max_factor = 32 };
            Unroll { loop = "j2"; max_factor = 32 };
            Unroll { loop = "j3"; max_factor = 32 };
            Unroll { loop = "i1"; max_factor = 8 };
            Unroll { loop = "i2"; max_factor = 8 };
            Unroll { loop = "i3"; max_factor = 8 };
          ];
        tile_nests = [ [ "j1" ]; [ "j2" ]; [ "j3" ] ];
        base_sigma = 4.0e-3;
        field_sd = 1.1;
        extra_channels = [];
      } );
    ( "gemver",
      {
        knobs =
          [
            Tile { loop = "i1"; sizes = small_tiles };
            Tile { loop = "j1"; sizes = small_tiles };
            Tile { loop = "j2"; sizes = tile_sizes };
            Tile { loop = "j4"; sizes = tile_sizes };
            Jam { loop = "i1"; max_factor = 8 };
            Unroll { loop = "j1"; max_factor = 16 };
            Unroll { loop = "j2"; max_factor = 16 };
            Unroll { loop = "i3"; max_factor = 8 };
            Unroll { loop = "j4"; max_factor = 16 };
          ];
        tile_nests = [ [ "i1"; "j1" ]; [ "j2" ]; [ "j4" ] ];
        base_sigma = 8.5e-3;
        field_sd = 1.0;
        extra_channels = [];
      } );
    ( "hessian",
      {
        knobs =
          [
            Tile { loop = "i"; sizes = small_tiles };
            Tile { loop = "j"; sizes = small_tiles };
            Jam { loop = "i"; max_factor = 8 };
            Unroll { loop = "j"; max_factor = 30 };
          ];
        tile_nests = [ [ "i"; "j" ] ];
        base_sigma = 2.4e-3;
        field_sd = 1.2;
        extra_channels = [];
      } );
    ( "jacobi",
      {
        knobs =
          [
            Tile { loop = "i1"; sizes = small_tiles };
            Tile { loop = "j1"; sizes = small_tiles };
            Jam { loop = "i1"; max_factor = 8 };
            Unroll { loop = "j1"; max_factor = 30 };
            Jam { loop = "i2"; max_factor = 8 };
            Unroll { loop = "j2"; max_factor = 16 };
          ];
        tile_nests = [ [ "i1"; "j1" ] ];
        base_sigma = 2.3e-3;
        field_sd = 1.3;
        extra_channels = [];
      } );
    ( "lu",
      {
        knobs =
          [
            Tile { loop = "j"; sizes = tile_sizes };
            Unroll { loop = "j"; max_factor = 32 };
            Unroll { loop = "i"; max_factor = 8 };
            Unroll { loop = "k"; max_factor = 4 };
          ];
        tile_nests = [ [ "j" ] ];
        base_sigma = 1.2e-3;
        field_sd = 1.0;
        extra_channels = [];
      } );
    ( "mm",
      {
        knobs =
          [
            Tile { loop = "i"; sizes = tile_sizes };
            Tile { loop = "j"; sizes = tile_sizes };
            Tile { loop = "k"; sizes = tile_sizes };
            Jam { loop = "i"; max_factor = 8 };
            Unroll { loop = "j"; max_factor = 16 };
            Unroll { loop = "k"; max_factor = 32 };
          ];
        tile_nests = [ [ "i"; "j"; "k" ] ];
        base_sigma = 1.3e-3;
        field_sd = 1.0;
        extra_channels = [];
      } );
    ( "mvt",
      {
        knobs =
          [
            Tile { loop = "j1"; sizes = tile_sizes };
            Tile { loop = "j2"; sizes = tile_sizes };
            Jam { loop = "i1"; max_factor = 8 };
            Unroll { loop = "j1"; max_factor = 32 };
            Unroll { loop = "j2"; max_factor = 32 };
          ];
        tile_nests = [ [ "j1" ]; [ "j2" ] ];
        base_sigma = 1.4e-3;
        field_sd = 1.1;
        extra_channels = [];
      } );
  ]

type t = {
  bench_name : string;
  kernel : Ast.kernel;
  spec : spec;
  noise : Noise.t;
  salt : int;  (* per-benchmark seed of the noise field *)
  feature_table : float array array;
      (* Knob [i]'s feature value for each of its raw values, in knob
         order: one row of length [knob_cardinality] per knob, so the row
         lengths also bound a valid configuration. *)
  store : (int array, float * float) Memo.t;
      (* config -> (true runtime, compile seconds).  The only mutable
         state, and domain-safe: an instance can be shared by every task
         and session that tunes the benchmark. *)
}

let name t = t.bench_name
let kernel t = t.kernel
let knobs t = t.spec.knobs
let dim t = Array.length t.feature_table

let space_size t =
  List.fold_left
    (fun acc k -> acc *. float_of_int (knob_cardinality k))
    1.0 t.spec.knobs

(* Scale and centre against the uniform distribution over the knob's
   range: mean (c-1)/2, standard deviation sqrt((c^2 - 1) / 12). *)
let feature_row k =
  let c = float_of_int (knob_cardinality k) in
  let mean = (c -. 1.0) /. 2.0 in
  let sd = sqrt (((c *. c) -. 1.0) /. 12.0) in
  Array.init (knob_cardinality k) (fun raw ->
      if sd = 0.0 then 0.0 else (float_of_int raw -. mean) /. sd)

let create bench_name =
  let spec = List.assoc bench_name specs in
  let kernel = Kernels.kernel bench_name in
  let noise =
    Noise.create
      (Noise.Gaussian_rel 1.0 (* scaled per configuration *)
      :: Noise.Burst { probability = 0.01; mu = -3.0; sigma = 1.0 }
      :: Noise.Drift { period = 500.0; amplitude = 0.002 }
      :: spec.extra_channels)
  in
  {
    bench_name;
    kernel;
    spec;
    noise;
    (* Structured derivation, not Hashtbl.hash: the polymorphic hash is
       not stable across OCaml versions, and this salt seeds the noise
       field of every simulated measurement. *)
    salt =
      Rng.derive ~seed:0x5eed [ Rng.S "spapt.noise-field"; Rng.S bench_name ];
    feature_table = Array.of_list (List.map feature_row spec.knobs);
    store = Memo.create ~capacity:8192 ~name:"spapt.cache" ();
  }

let fork_stats _ = { Fork.nodes = 0; steps_reused = 0; steps_applied = 0 }

let all () = List.map (fun (n, _) -> create n) specs

let config_valid t config =
  Array.length config = Array.length t.feature_table
  && Array.for_all2
       (fun row v -> v >= 0 && v < Array.length row)
       t.feature_table config

let check_config t config =
  if not (config_valid t config) then
    invalid_arg
      (Printf.sprintf "Spapt: invalid configuration for %s" t.bench_name)

let random_config t rng =
  Array.map (fun row -> Rng.int rng (Array.length row)) t.feature_table

(* Knob value (tile size or factor) from the raw configuration entry. *)
let knob_value k raw =
  match k with
  | Tile { sizes; _ } -> sizes.(raw)
  | Jam _ | Unroll _ -> raw + 1

let recipe t config =
  check_config t config;
  let values =
    List.mapi (fun i k -> (k, knob_value k config.(i))) t.spec.knobs
  in
  let tile_size loop =
    match
      List.find_opt
        (fun (k, _) ->
          match k with Tile { loop = l; _ } -> l = loop | _ -> false)
        values
    with
    | Some (_, v) -> v
    | None -> 1
  in
  (* Identity steps (factor 1, all-1 tile nests) are dropped rather than
     applied as no-ops, so an audit only sees steps that change the
     kernel. *)
  let tiles =
    List.filter_map
      (fun nest ->
        let spec = List.map (fun l -> (l, tile_size l)) nest in
        if List.for_all (fun (_, s) -> s = 1) spec then None
        else Some (Verify.Tile_nest spec))
      t.spec.tile_nests
  in
  (* Jams innermost-first (knob lists are outermost-first): jamming an
     outer loop absorbs the already-jammed inner loop's body whole. *)
  let jams =
    List.filter_map
      (fun (k, v) ->
        match k with
        | Jam { loop; _ } when v > 1 ->
            Some (Verify.Unroll_and_jam { index = loop; factor = v })
        | Tile _ | Jam _ | Unroll _ -> None)
      (List.rev values)
  in
  let unrolls =
    List.filter_map
      (fun (k, v) ->
        match k with
        | Unroll { loop; _ } when v > 1 ->
            Some (Verify.Unroll { index = loop; factor = v })
        | Tile _ | Jam _ | Unroll _ -> None)
      values
  in
  tiles @ jams @ unrolls

let transformed t config =
  match Verify.apply_steps (recipe t config) t.kernel with
  | Ok k -> k
  | Error e ->
      invalid_arg
        (Printf.sprintf "Spapt %s: transformation recipe failed: %s"
           t.bench_name
           (Transform.error_to_string e))

(* Problem sizes small enough for interpreter-based soundness checks;
   the test suite uses the same table. *)
let small_params t =
  match t.bench_name with
  | "adi" -> [ ("N", 7); ("T", 2) ]
  | "atax" | "bicgkernel" | "dgemv3" | "gemver" | "mvt" ->
      [ ("N", 9); ("T", 2) ]
  | "correlation" -> [ ("M", 8); ("N", 7); ("T", 1) ]
  | "hessian" | "jacobi" -> [ ("N", 8); ("T", 2) ]
  | "lu" | "mm" -> [ ("N", 7); ("T", 1) ]
  | _ -> []

let verify_config t config =
  let subject =
    Printf.sprintf "%s [%s]" t.bench_name
      (String.concat "," (List.map string_of_int (Array.to_list config)))
  in
  Verify.run ~param_overrides:(small_params t) ~subject t.kernel
    (recipe t config)

let features t config =
  check_config t config;
  Array.mapi (fun i raw -> t.feature_table.(i).(raw)) config

(* The expensive step behind every measurement: transform the kernel
   from scratch, re-analyze it, and price it on the machine model.  A
   pure function of the configuration, so the store may evict and
   recompute freely and concurrent computes never conflict. *)
let compute_evaluation t config =
  let e = Machine.evaluate Machine.default (transformed t config) in
  (e.Machine.runtime, e.Machine.compile)

(* The key is a copy: callers may mutate their array afterwards. *)
let evaluate t config =
  Memo.find_or_compute t.store (Array.copy config) (fun () ->
      compute_evaluation t config)

let prepare ?pool t configs =
  match pool with
  | Some pool when Pool.jobs pool > 1 -> (
      let seen = Hashtbl.create 16 in
      let missing =
        List.filter
          (fun c ->
            if config_valid t c && (not (Memo.mem t.store c))
               && not (Hashtbl.mem seen c)
            then begin
              Hashtbl.add seen c ();
              true
            end
            else false)
          configs
      in
      match missing with
      | [] | [ _ ] -> () (* nothing worth fanning out *)
      | batch ->
          (* One task per worker, not per config: a single evaluation is
             ~ms-scale, so per-config tasks would drown in scheduling
             overhead.  The store publishes each result; evaluation is
             deterministic, so which domain computes what is
             unobservable. *)
          let jobs = Pool.jobs pool in
          let n = List.length batch in
          let arr = Array.of_list batch in
          let chunk i =
            let lo = i * n / jobs and hi = (i + 1) * n / jobs in
            Array.to_list (Array.sub arr lo (hi - lo))
          in
          ignore
            (Pool.map
               ~label:(fun i -> Printf.sprintf "spapt.eval chunk %d" i)
               pool
               (List.iter (fun c -> ignore (evaluate t c)))
               (List.filter (fun c -> c <> []) (List.init jobs chunk))))
  | _ -> ()

let true_runtime t config = fst (evaluate t config)
let compile_seconds t config = snd (evaluate t config)

(* Heteroskedastic noise field: a deterministic lognormal multiplier per
   configuration.  Hash -> uniform -> normal quantile keeps it smooth-free
   but reproducible; the lognormal tail yields the rare extremely-noisy
   configurations of Table 2. *)
let noise_sigma t config =
  check_config t config;
  (* Rng.derive, not Hashtbl.hash: the polymorphic hash truncates its
     input and is free to change across OCaml releases, which would
     silently reshuffle every configuration's noise level. *)
  let h =
    Rng.derive ~seed:t.salt
      (List.map (fun v -> Rng.I v) (Array.to_list config))
    land 0x3FFFFFFF
  in
  let u = (float_of_int h +. 0.5) /. 1073741824.0 in
  let z = Distributions.normal_quantile u in
  t.spec.base_sigma *. exp (t.spec.field_sd *. (z -. (0.5 *. t.spec.field_sd)))

let measure t ~rng ~run_index config =
  let sigma = noise_sigma t config in
  let model = Noise.scale_gaussian t.noise sigma in
  Noise.sample model ~rng ~run_index ~true_value:(true_runtime t config)
