(* The observability layer: JSON round-trips, span nesting and ordering
   under Pool fan-out (the span tree must be identical at any job count),
   atomic counter and sketch contention, manifest round-trips,
   trace-summary self-time attribution, bench records written and read
   back, and the guarantee that tracing never changes experiment
   output. *)

module Json = Altune_obs.Json
module Bench_diff = Altune_obs.Bench_diff
module Trace = Altune_obs.Trace
module Metrics = Altune_obs.Metrics
module Manifest = Altune_obs.Manifest
module Summary = Altune_obs.Summary
module Quantile = Altune_obs.Quantile
module Flight = Altune_obs.Flight
module Snapshot = Altune_obs.Snapshot
module Pool = Altune_exec.Pool
module Runs = Altune_experiments.Runs
module Scale = Altune_experiments.Scale
module Drivers = Altune_experiments.Drivers

(* --- JSON -------------------------------------------------------------- *)

let rec json_eq a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Int x, Json.Int y -> x = y
  | Json.Float x, Json.Float y -> Float.equal x y
  | Json.String x, Json.String y -> String.equal x y
  | Json.List xs, Json.List ys ->
      List.length xs = List.length ys && List.for_all2 json_eq xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_eq v1 v2)
           xs ys
  | _ -> false

let roundtrip j =
  match Json.of_string (Json.to_string j) with
  | Ok j' -> j'
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 0.1;
      Json.Float 1e-9;
      Json.Float (-3.25);
      Json.Float 1.7976931348623157e308;
      Json.String "";
      Json.String "with \"quotes\", \\ and \n\t control \x01 chars";
      Json.List [ Json.Int 1; Json.String "two"; Json.Null ];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("b", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      Alcotest.(check bool)
        (Printf.sprintf "round-trip %s" (Json.to_string j))
        true
        (json_eq j (roundtrip j)))
    samples

let test_json_int_float_distinct () =
  (* Counters must round-trip as ints; durations as floats. *)
  Alcotest.(check bool) "int stays int" true
    (match Json.of_string "17" with Ok (Json.Int 17) -> true | _ -> false);
  Alcotest.(check bool) "float stays float" true
    (match Json.of_string "17.0" with
    | Ok (Json.Float f) -> Float.equal f 17.0
    | _ -> false);
  Alcotest.(check bool) "int renders bare" true
    (String.equal (Json.to_string (Json.Int 17)) "17");
  Alcotest.(check bool) "float renders with point" true
    (String.contains (Json.to_string (Json.Float 17.0)) '.')

let test_json_errors () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" s)
    bad

(* --- Span trees across job counts -------------------------------------- *)

(* Canonical form of a trace: the span tree with children ordered by a
   stable key (name + index attribute), ignoring ids, timings and
   domains.  Two runs of the same traced program must produce the same
   canonical tree regardless of job count. *)
let canonical_tree lines =
  let spans =
    List.filter_map
      (fun line ->
        match Json.of_string line with
        | Error e -> Alcotest.failf "bad trace line %S: %s" line e
        | Ok j -> (
            match Json.member "ev" j with
            | Some (Json.String "span") ->
                let id =
                  match Option.bind (Json.member "id" j) Json.to_int_opt with
                  | Some i -> i
                  | None -> Alcotest.failf "span without id: %s" line
                in
                let parent =
                  Option.bind (Json.member "parent" j) Json.to_int_opt
                in
                let name =
                  match
                    Option.bind (Json.member "name" j) Json.to_string_opt
                  with
                  | Some n -> n
                  | None -> Alcotest.failf "span without name: %s" line
                in
                let index =
                  Option.bind
                    (Option.bind (Json.member "attrs" j)
                       (Json.member "index"))
                    Json.to_int_opt
                in
                Some (id, (parent, name, index))
            | _ -> None))
      lines
  in
  let children = Hashtbl.create 64 in
  let roots = ref [] in
  List.iter
    (fun (id, (parent, name, index)) ->
      match parent with
      | Some p -> Hashtbl.add children p (id, name, index)
      | None -> roots := (id, name, index) :: !roots)
    spans;
  let rec render (id, name, index) =
    let kids =
      Hashtbl.find_all children id
      |> List.sort (fun (_, n1, i1) (_, n2, i2) ->
             match String.compare n1 n2 with
             | 0 -> compare (i1 : int option) i2
             | c -> c)
    in
    Printf.sprintf "%s%s(%s)" name
      (match index with Some i -> Printf.sprintf "[%d]" i | None -> "")
      (String.concat "," (List.map render kids))
  in
  !roots
  |> List.sort (fun (_, n1, i1) (_, n2, i2) ->
         match String.compare n1 n2 with
         | 0 -> compare (i1 : int option) i2
         | c -> c)
  |> List.map render |> String.concat ";"

let traced_workload ~jobs () =
  Pool.with_pool ~jobs (fun p ->
      Trace.with_span ~name:"root" (fun () ->
          Trace.with_span ~name:"setup" ~phase:"dataset" (fun () -> ());
          ignore
            (Pool.mapi p
               (fun i x ->
                 Trace.with_span ~name:"work" ~phase:"profiling"
                   ~attrs:[ ("index", Trace.Int i) ]
                   (fun () -> x * x))
               (List.init 8 (fun i -> i)))))

let test_span_tree_stable_across_jobs () =
  let tree_at jobs =
    let (), lines = Trace.with_memory (traced_workload ~jobs) in
    canonical_tree lines
  in
  let t1 = tree_at 1 and t4 = tree_at 4 in
  Alcotest.(check string) "same span tree at jobs=1 and jobs=4" t1 t4;
  (* And the tree really has the expected logical shape: every pool task
     is a child of [root] even when it ran on another domain. *)
  Alcotest.(check bool) "tasks parented under root" true
    (let expected_task i =
       Printf.sprintf "pool.task[%d](work[%d]())" i i
     in
     String.equal t1
       (Printf.sprintf "root(%s,setup())"
          (String.concat "," (List.init 8 expected_task))))

let test_span_error_flag () =
  let (), lines =
    Trace.with_memory (fun () ->
        try
          Trace.with_span ~name:"boom" (fun () -> failwith "x")
        with Failure _ -> ())
  in
  let errs =
    List.filter
      (fun l ->
        match Json.of_string l with
        | Ok j -> (
            match
              Option.bind (Json.member "err" j) Json.to_bool_opt
            with
            | Some b -> b
            | None -> false)
        | Error _ -> false)
      lines
  in
  Alcotest.(check int) "one err span" 1 (List.length errs)

let test_add_attrs () =
  let (), lines =
    Trace.with_memory (fun () ->
        Trace.with_span ~name:"outer" (fun () ->
            Trace.add_attrs [ ("late", Trace.Int 9) ]))
  in
  let found =
    List.exists
      (fun l ->
        match Json.of_string l with
        | Ok j ->
            Option.bind
              (Option.bind (Json.member "attrs" j) (Json.member "late"))
              Json.to_int_opt
            = Some 9
        | Error _ -> false)
      lines
  in
  Alcotest.(check bool) "late attr recorded" true found

(* --- Metrics ------------------------------------------------------------ *)

let test_registry_identity_and_kinds () =
  let c1 = Metrics.counter "t.shared" in
  let c2 = Metrics.counter "t.shared" in
  Metrics.incr c1;
  Metrics.incr c2;
  Alcotest.(check int) "same instrument" 2 (Metrics.counter_value c1);
  (match Metrics.gauge "t.shared" with
  | _ -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ());
  let _s = Metrics.sketch ~alpha:0.01 "t.s" in
  match Metrics.sketch ~alpha:0.02 "t.s" with
  | _ -> Alcotest.fail "alpha mismatch accepted"
  | exception Invalid_argument _ -> ()

let test_counter_contention () =
  let c = Metrics.counter "t.contended" in
  let s = Metrics.sketch "t.contended.s" in
  let per_task = 10_000 in
  Pool.with_pool ~jobs:4 (fun p ->
      ignore
        (Pool.map p
           (fun _ ->
             for _ = 1 to per_task do
               Metrics.incr c;
               Metrics.record s 1.0
             done)
           (List.init 8 (fun i -> i))));
  Alcotest.(check int) "no lost increments" (8 * per_task)
    (Metrics.counter_value c);
  let data = Metrics.sketch_data s in
  Alcotest.(check int) "no lost records" (8 * per_task) (Quantile.count data);
  Alcotest.(check (float 1e-6))
    "atomic float sum" (float_of_int (8 * per_task))
    (Quantile.sum data)

(* --- Quantile sketches --------------------------------------------------- *)

let sketch_of values =
  let s = Quantile.create () in
  List.iter (Quantile.add s) values;
  s

let probe_qs = [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ]

let check_sketch_agreement what a b ~with_sum =
  Alcotest.(check int) (what ^ ": count") (Quantile.count a) (Quantile.count b);
  Alcotest.(check (float 0.0))
    (what ^ ": max") (Quantile.max_value a) (Quantile.max_value b);
  Alcotest.(check (float 0.0))
    (what ^ ": min") (Quantile.min_value a) (Quantile.min_value b);
  if with_sum then
    Alcotest.(check (float 0.0))
      (what ^ ": sum") (Quantile.sum a) (Quantile.sum b);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: q%.2f" what q)
        (Quantile.quantile a q) (Quantile.quantile b q))
    probe_qs

let positive_values =
  QCheck.(list_of_size (Gen.int_range 1 200) (float_range 1e-3 1e3))

(* Estimated quantiles stay within the sketch's advertised relative
   error of the exact order statistic (rank = max 1 (ceil q*n)). *)
let prop_rank_error =
  QCheck.Test.make ~name:"quantile within alpha of exact" ~count:100
    positive_values (fun values ->
      let s = sketch_of values in
      let sorted = List.sort compare values in
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      let alpha = Quantile.alpha s in
      List.for_all
        (fun q ->
          let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
          let exact = arr.(rank - 1) in
          let est = Quantile.quantile s q in
          Float.abs (est -. exact) <= (1.02 *. alpha *. exact) +. 1e-12)
        probe_qs)

(* Merging is commutative including the float sum: merging two sketches
   into a fresh copy computes sum_a + sum_b each way, and IEEE addition
   of two floats is commutative. *)
let prop_merge_commutative =
  QCheck.Test.make ~name:"merge commutative (incl. sum)" ~count:60
    QCheck.(pair positive_values positive_values)
    (fun (va, vb) ->
      let a = sketch_of va and b = sketch_of vb in
      let ab = Quantile.copy a and ba = Quantile.copy b in
      Quantile.merge_into ab b;
      Quantile.merge_into ba a;
      check_sketch_agreement "a+b = b+a" ab ba ~with_sum:true;
      true)

(* Associative on everything except the sum (integer bucket counts);
   the sum's round-off depends on addition order, so it is excluded. *)
let prop_merge_associative =
  QCheck.Test.make ~name:"merge associative (excl. sum)" ~count:40
    QCheck.(triple positive_values positive_values positive_values)
    (fun (va, vb, vc) ->
      let left =
        let ab = Quantile.copy (sketch_of va) in
        Quantile.merge_into ab (sketch_of vb);
        Quantile.merge_into ab (sketch_of vc);
        ab
      in
      let right =
        let bc = Quantile.copy (sketch_of vb) in
        Quantile.merge_into bc (sketch_of vc);
        let a = Quantile.copy (sketch_of va) in
        Quantile.merge_into a bc;
        a
      in
      check_sketch_agreement "(a+b)+c = a+(b+c)" left right ~with_sum:false;
      true)

let test_quantile_underflow_and_empty () =
  let s = Quantile.create () in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Quantile.quantile s 0.5));
  List.iter (Quantile.add s) [ -3.0; 0.0; nan; infinity; 5.0 ];
  Alcotest.(check int) "every value counted" 5 (Quantile.count s);
  (* Underflow values rank below everything, so the median of one real
     value among four underflows is still clamped into [min, max]. *)
  let est = Quantile.quantile s 1.0 in
  Alcotest.(check bool) "p100 lands on the real value" true
    (Float.abs (est -. 5.0) <= 5.0 *. 1.02 *. Quantile.alpha s)

let test_quantile_json_roundtrip () =
  let s = sketch_of [ 0.004; 0.1; 0.1; 2.5; 40.0 ] in
  let s' = Quantile.of_json (roundtrip (Quantile.to_json s)) in
  check_sketch_agreement "json round-trip" s s' ~with_sum:true

(* The property the server's telemetry relies on: per-task sketches
   merged in task order give the same quantiles at any job count. *)
let test_sketch_jobs_invariant () =
  let merged ~jobs =
    Pool.with_pool ~jobs (fun p ->
        let per_task =
          Pool.map p
            (fun i ->
              let s = Quantile.create () in
              for j = 1 to 500 do
                Quantile.add s
                  (0.001 *. float_of_int (((i * 7919) + (j * 104729)) mod 10_000))
              done;
              s)
            (List.init 8 (fun i -> i))
        in
        let acc = Quantile.create () in
        List.iter (Quantile.merge_into acc) per_task;
        acc)
  in
  check_sketch_agreement "jobs 1 = jobs 4" (merged ~jobs:1) (merged ~jobs:4)
    ~with_sum:true

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_render_prom () =
  Metrics.add (Metrics.counter "t.prom.requests") 3;
  Metrics.set_gauge (Metrics.gauge "t.prom.depth") 2.0;
  let s = Metrics.sketch "t.prom.wire" in
  List.iter (Metrics.record s) [ 0.1; 0.2; 0.3 ];
  let out = Metrics.render_prom () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition contains " ^ needle) true
        (contains out needle))
    [
      "# TYPE t_prom_requests counter";
      "t_prom_requests 3";
      "# TYPE t_prom_depth gauge";
      "t_prom_depth 2";
      "# TYPE t_prom_wire summary";
      "t_prom_wire{quantile=\"0.5\"}";
      "t_prom_wire{quantile=\"0.99\"}";
      "t_prom_wire_count 3";
    ]

(* --- Flight recorder ----------------------------------------------------- *)

let test_flight_wraparound () =
  let f = Flight.create ~capacity:4 () in
  for i = 0 to 9 do
    Flight.record f (Printf.sprintf "l%d" i)
  done;
  Alcotest.(check (list string)) "last capacity lines, oldest first"
    [ "l6"; "l7"; "l8"; "l9" ]
    (Flight.dump f);
  Alcotest.(check int) "every line counted" 10 (Flight.total_recorded f);
  Flight.clear f;
  Alcotest.(check (list string)) "clear empties the rings" [] (Flight.dump f)

let test_flight_domain_isolation () =
  let f = Flight.create ~capacity:4 () in
  Flight.record f "main-0";
  Flight.record f "main-1";
  let d =
    Domain.spawn (fun () ->
        Flight.record f "child-0";
        Flight.record f "child-1")
  in
  Domain.join d;
  (* The spawned domain has the higher id, so its ring dumps second;
     within each domain the lines keep emission order. *)
  Alcotest.(check (list string)) "domains isolated, ascending id order"
    [ "main-0"; "main-1"; "child-0"; "child-1" ]
    (Flight.dump f)

(* The recorder only retains lines: an experiment with the flight
   recorder installed produces byte-identical output. *)
let test_output_identical_with_flight () =
  let run () =
    Runs.clear_cache ();
    Drivers.table1 ~benchmarks:[ "hessian" ] ~scale:Scale.smoke ~seed:1 ()
  in
  let plain = run () in
  let f = Flight.create ~capacity:64 () in
  Flight.install f;
  let recorded =
    Fun.protect ~finally:Trace.uninstall (fun () -> run ())
  in
  Alcotest.(check string) "byte-identical table" plain recorded;
  Alcotest.(check bool) "recorder saw trace lines" true
    (Flight.total_recorded f > 0);
  Runs.clear_cache ()

(* --- Snapshot series ----------------------------------------------------- *)

let test_snapshot_rotation () =
  let path = Filename.temp_file "altune-snap" ".jsonl" in
  let w = Snapshot.create ~rotate_after:2 ~keep:2 path in
  for i = 1 to 5 do
    Snapshot.write w (Json.Obj [ ("i", Json.Int i) ])
  done;
  Snapshot.close w;
  let seq p =
    List.filter_map
      (fun j -> Option.bind (Json.member "i" j) Json.to_int_opt)
      (Snapshot.load p)
  in
  Alcotest.(check (list int)) "live file holds the newest" [ 5 ] (seq path);
  Alcotest.(check (list int)) "first rotation" [ 3; 4 ] (seq (path ^ ".1"));
  Alcotest.(check (list int)) "second rotation" [ 1; 2 ] (seq (path ^ ".2"));
  let all =
    List.filter_map
      (fun j -> Option.bind (Json.member "i" j) Json.to_int_opt)
      (Snapshot.load_all path)
  in
  Alcotest.(check (list int)) "load_all is oldest-first" [ 1; 2; 3; 4; 5 ] all;
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".1"; path ^ ".2" ];
  Alcotest.(check (list int)) "missing file is an empty series" []
    (List.filter_map Json.to_int_opt (Snapshot.load path))

(* --- Manifest ----------------------------------------------------------- *)

let test_manifest_roundtrip () =
  let m = Manifest.capture ~scale:"smoke" ~jobs:2 ~seed:42 () in
  let line = Json.to_string (Manifest.to_json m) in
  match Json.of_string line with
  | Error e -> Alcotest.failf "manifest reparse: %s" e
  | Ok j -> (
      match Manifest.of_json j with
      | Error e -> Alcotest.failf "manifest of_json: %s" e
      | Ok m' ->
          Alcotest.(check bool) "round-trips" true (m = m');
          Alcotest.(check string) "scale kept" "smoke" m'.Manifest.scale;
          Alcotest.(check int) "jobs kept" 2 m'.Manifest.jobs;
          Alcotest.(check int) "seed kept" 42 m'.Manifest.seed;
          Alcotest.(check bool) "cores probed" true (m'.Manifest.cores >= 1))

(* --- Summary ------------------------------------------------------------ *)

let span ~id ?parent ~name ?phase ~start ~dur () =
  Json.to_string
    (Json.Obj
       ([ ("ev", Json.String "span"); ("id", Json.Int id) ]
       @ (match parent with
         | Some p -> [ ("parent", Json.Int p) ]
         | None -> [])
       @ [ ("name", Json.String name) ]
       @ (match phase with
         | Some p -> [ ("phase", Json.String p) ]
         | None -> [])
       @ [
           ("domain", Json.Int 0);
           ("start", Json.Float start);
           ("dur", Json.Float dur);
         ]))

let test_summary_self_time () =
  (* root [0,10] with children profiling [1,4] and alc [5,7]:
     self(root) = 10 - 3 - 2 = 5, all attributed to "(other)". *)
  let lines =
    [
      Json.to_string
        (Manifest.to_json (Manifest.capture ~scale:"smoke" ~jobs:1 ()));
      span ~id:1 ~name:"root" ~start:0.0 ~dur:10.0 ();
      span ~id:2 ~parent:1 ~name:"p" ~phase:"profiling" ~start:1.0 ~dur:3.0
        ();
      span ~id:3 ~parent:1 ~name:"a" ~phase:"alc" ~start:5.0 ~dur:2.0 ();
    ]
  in
  match Summary.of_lines lines with
  | Error e -> Alcotest.failf "summary: %s" e
  | Ok s ->
      Alcotest.(check int) "span count" 3 s.Summary.span_count;
      Alcotest.(check (float 1e-9)) "wall" 10.0 s.Summary.wall_s;
      Alcotest.(check (float 1e-9)) "busy" 10.0 s.Summary.busy_s;
      let self phase =
        match
          List.find_opt
            (fun r -> String.equal r.Summary.phase phase)
            s.Summary.rows
        with
        | Some r -> r.Summary.self_s
        | None -> Alcotest.failf "missing phase %s" phase
      in
      Alcotest.(check (float 1e-9)) "(other) self" 5.0 (self "(other)");
      Alcotest.(check (float 1e-9)) "profiling self" 3.0 (self "profiling");
      Alcotest.(check (float 1e-9)) "alc self" 2.0 (self "alc");
      Alcotest.(check bool) "manifest recovered" true
        (match s.Summary.manifest with
        | Some m -> String.equal m.Manifest.scale "smoke"
        | None -> false);
      Alcotest.(check (list string)) "no violations at 55%" []
        (Summary.violations s ~max_share:55.0);
      Alcotest.(check int) "violation below 45%" 1
        (List.length (Summary.violations s ~max_share:45.0))

let test_summary_rejects_garbage () =
  (match Summary.of_lines [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty trace accepted");
  match Summary.of_lines [ "not json" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed line accepted"

(* --- Tracing must not change results ------------------------------------ *)

let test_output_identical_with_tracing () =
  let run () =
    Runs.clear_cache ();
    Drivers.table1 ~benchmarks:[ "hessian" ] ~scale:Scale.smoke ~seed:1 ()
  in
  let plain = run () in
  let traced, lines = Trace.with_memory run in
  Alcotest.(check string) "byte-identical table" plain traced;
  Alcotest.(check bool) "trace non-empty" true (List.length lines > 0);
  Runs.clear_cache ()

(* --- Bench-diff --------------------------------------------------------- *)

let record ?host ?cores ?max_regress ~section ~jobs seconds =
  {
    Bench_diff.section;
    scale = "smoke";
    jobs;
    seconds;
    host;
    cores;
    git_rev = None;
    rate = None;
    rate_unit = None;
    max_regress;
  }

let test_bench_diff_regression () =
  let baseline =
    [
      record ~host:"vm" ~cores:1 ~max_regress:25.0 ~section:"table1" ~jobs:2
        10.0;
      record ~host:"vm" ~cores:1 ~max_regress:25.0 ~section:"fig6" ~jobs:2
        10.0;
    ]
  in
  let current =
    [
      (* 2x slowdown on table1, within bounds on fig6. *)
      record ~host:"vm" ~cores:1 ~section:"table1" ~jobs:2 20.0;
      record ~host:"vm" ~cores:1 ~section:"fig6" ~jobs:2 11.0;
    ]
  in
  let d = Bench_diff.diff ~baseline ~current in
  Alcotest.(check int) "two comparable sections" 2 (List.length d.deltas);
  (match Bench_diff.regressions d with
  | [ r ] ->
      Alcotest.(check string) "regressed section" "table1" r.section;
      Alcotest.(check (float 1e-9)) "delta is +100%" 100.0 r.delta_pct
  | rs -> Alcotest.failf "expected one regression, got %d" (List.length rs));
  (* The bound is strict: exactly +25% is not a regression. *)
  let d25 =
    Bench_diff.diff
      ~baseline:
        [ record ~host:"vm" ~cores:1 ~max_regress:25.0 ~section:"t" ~jobs:1 8.0 ]
      ~current:[ record ~host:"vm" ~cores:1 ~section:"t" ~jobs:1 10.0 ]
  in
  Alcotest.(check int) "+25% passes a 25% bound" 0
    (List.length (Bench_diff.regressions d25));
  let rendered = Bench_diff.render d in
  Alcotest.(check bool) "render flags the regression" true
    (let n = String.length rendered in
     let rec go i =
       i + 10 <= n && (String.sub rendered i 10 = "REGRESSION" || go (i + 1))
     in
     go 0)

let test_bench_diff_skips_incompatible () =
  let baseline =
    [
      record ~host:"vm" ~cores:1 ~section:"table1" ~jobs:2 10.0;
      record ~section:"fig6" ~jobs:2 10.0 (* pre-manifest: no host *);
    ]
  in
  let current =
    [
      record ~host:"other-box" ~cores:8 ~section:"table1" ~jobs:2 99.0;
      record ~section:"fig6" ~jobs:2 99.0;
      record ~host:"vm" ~cores:1 ~section:"table1" ~jobs:4 99.0;
    ]
  in
  let d = Bench_diff.diff ~baseline ~current in
  (* Nothing shares (section, scale, jobs, host, cores): no deltas, so a
     wildly slower run on a different machine never false-fails. *)
  Alcotest.(check int) "no comparable pairs" 0 (List.length d.deltas);
  Alcotest.(check int) "skipped baseline" 1 d.skipped_baseline;
  Alcotest.(check int) "skipped current" 1 d.skipped_current;
  Alcotest.(check int) "unmatched current" 2 d.unmatched;
  Alcotest.(check int) "nothing regresses" 0
    (List.length (Bench_diff.regressions d))

(* One case per verdict of the gate.  A diff that compared nothing is a
   skip with its own line naming both sides' record counts, not a pass
   over 0 sections. *)
let verdict =
  Alcotest.testable
    (fun fmt v ->
      Format.pp_print_string fmt
        (match v with
        | Bench_diff.Pass -> "pass"
        | Skip -> "skip"
        | Regression -> "regression"))
    ( = )

let check_verdict ~current want_verdict want_line =
  let baseline =
    [ record ~host:"vm" ~cores:1 ~max_regress:25.0 ~section:"table1" ~jobs:2
        10.0 ]
  in
  let v, line = Bench_diff.verdict (Bench_diff.diff ~baseline ~current) in
  Alcotest.(check verdict) "verdict" want_verdict v;
  Alcotest.(check string) "verdict line" want_line line

let test_bench_diff_verdict_pass () =
  check_verdict
    ~current:[ record ~host:"vm" ~cores:1 ~section:"table1" ~jobs:2 11.0 ]
    Bench_diff.Pass
    "bench-diff: no regression beyond its bound (1 comparable section(s))"

let test_bench_diff_verdict_skip () =
  check_verdict
    ~current:
      [
        record ~host:"other-box" ~cores:8 ~section:"table1" ~jobs:2 99.0;
        record ~section:"fig6" ~jobs:2 1.0;
      ]
    Bench_diff.Skip
    "bench-diff: skipped, nothing compared: none of 2 current record(s) \
     shares section, scale, jobs, host and cores with one of 1 baseline \
     record(s)"

let test_bench_diff_verdict_regression () =
  check_verdict
    ~current:[ record ~host:"vm" ~cores:1 ~section:"table1" ~jobs:2 20.0 ]
    Bench_diff.Regression
    "bench-diff: 1 section(s) regressed beyond their bound"

let test_bench_diff_parses_null_manifest () =
  let line =
    {|{"section": "table1", "scale": "quick", "jobs": 1, "seconds": 96.9, "manifest": null}|}
  in
  match Json.of_string line with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok j -> (
      match Bench_diff.record_of_json j with
      | Error e -> Alcotest.failf "record: %s" e
      | Ok r ->
          Alcotest.(check bool) "not comparable" true (r.host = None);
          Alcotest.(check (float 0.0)) "seconds kept" 96.9 r.seconds)

(* --- Bench records: the writer ------------------------------------------- *)

let bench_manifest =
  {
    Manifest.git_rev = "abc123";
    ocaml_version = "5.1.1";
    hostname = "h";
    cores = 4;
    scale = "smoke";
    jobs = 2;
    seed = 42;
  }

let bench_record =
  Alcotest.testable
    (fun fmt (r : Bench_diff.record) ->
      Format.fprintf fmt "%s/%s/jobs %d: %gs on %s (%s cores), rate %s %s"
        r.section r.scale r.jobs r.seconds
        (Option.value ~default:"-" r.host)
        (Option.fold ~none:"-" ~some:string_of_int r.cores)
        (Option.fold ~none:"-" ~some:string_of_float r.rate)
        (Option.value ~default:"-" r.rate_unit))
    ( = )

(* Plain, rate and extras records survive the text round trip with every
   field the diff matches and reports on; a record takes its jobs from
   the manifest it is given. *)
let test_bench_record_roundtrip () =
  let m = bench_manifest in
  let expected ?rate ~section ~jobs seconds =
    {
      (record ~host:"h" ~cores:4 ~section ~jobs seconds) with
      git_rev = Some "abc123";
      rate = Option.map fst rate;
      rate_unit = Option.map snd rate;
    }
  in
  let one_job =
    Bench_diff.record ~manifest:{ m with jobs = 1 } ~section:"surrogate-alc"
      ~seconds:6.934 ~rate:(1.19, "scores/s")
      ~extras:[ ("minor_words_per_op", Json.Float 0.71) ]
      ()
  in
  List.iter
    (fun (j, (want : Bench_diff.record)) ->
      match
        Result.bind (Json.of_string (Json.to_string j)) Bench_diff.record_of_json
      with
      | Error e -> Alcotest.failf "%s: %s" want.section e
      | Ok r -> Alcotest.check bench_record want.section want r)
    [
      ( Bench_diff.record ~manifest:m ~section:"table1" ~seconds:5.826 (),
        expected ~section:"table1" ~jobs:2 5.826 );
      ( Bench_diff.record ~manifest:m ~section:"serve" ~seconds:15.27
          ~rate:(13.1, "sess/s") (),
        expected ~rate:(13.1, "sess/s") ~section:"serve" ~jobs:2 15.27 );
      ( one_job,
        expected ~rate:(1.19, "scores/s") ~section:"surrogate-alc" ~jobs:1
          6.934 );
    ];
  Alcotest.(check (option (float 0.0)))
    "extra field kept" (Some 0.71)
    (Option.bind (Json.member "minor_words_per_op" one_job) Json.to_float_opt)

let with_temp_file contents f =
  let path = Filename.temp_file "bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A pretty-printed array, as [jq .] writes it: each record spans several
   lines and none starts a line with exactly "  {", so only a real JSON
   parse keeps them. *)
let jq_array =
  {|[
  {
    "section": "table1",
    "scale": "smoke",
    "jobs": 2,
    "seconds": 3.5,
    "host": "h",
    "cores": 4
  },
  {
    "section": "fig6",
    "scale": "smoke",
    "jobs": 2,
    "seconds": 7.25,
    "host": "h",
    "cores": 4
  }
]
|}

let test_bench_append_keeps_pretty_records () =
  with_temp_file jq_array (fun path ->
      let fresh =
        Bench_diff.record ~manifest:bench_manifest ~section:"fig5" ~seconds:1.5 ()
      in
      (match Bench_diff.append path [ fresh ] with
      | Ok () -> ()
      | Error e -> Alcotest.failf "append: %s" e);
      match Bench_diff.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok records ->
          Alcotest.(check (list (pair string (float 0.0))))
            "old records kept, new one appended"
            [ ("table1", 3.5); ("fig6", 7.25); ("fig5", 1.5) ]
            (List.map
               (fun (r : Bench_diff.record) -> (r.section, r.seconds))
               records);
          Alcotest.(check int) "one record per line" 5
            (List.length
               (String.split_on_char '\n' (String.trim (read_file path)))))

let test_bench_append_refuses_malformed () =
  let fresh =
    Bench_diff.record ~manifest:bench_manifest ~section:"fig5" ~seconds:1.5 ()
  in
  List.iter
    (fun contents ->
      with_temp_file contents (fun path ->
          (match Bench_diff.append path [ fresh ] with
          | Ok () -> Alcotest.failf "appended onto %S" contents
          | Error _ -> ());
          Alcotest.(check string) "file untouched" contents (read_file path)))
    [
      {|[
  {"section": "table1", "scale": "smoke", "jobs": 2,|};
      {|{"section": "table1"}|};
      {|[{"section": "table1", "scale": "smoke"}]|};
    ]

(* Processes appending to one file at once: the lock must keep every
   record.  Each child is this executable re-run with [append_child_var]
   set (a process that has spawned domains may not fork). *)
let append_child_var = "ALTUNE_TEST_APPEND_CHILD"
let appends_per_child = 25

let append_child path =
  let record =
    Bench_diff.record ~manifest:bench_manifest ~section:"child" ~seconds:1.0 ()
  in
  for _ = 1 to appends_per_child do
    match Bench_diff.append path [ record ] with
    | Ok () -> ()
    | Error e ->
        prerr_endline e;
        exit 1
  done;
  exit 0

let test_bench_append_concurrent () =
  with_temp_file "" (fun path ->
      let children = 6 in
      let env =
        Array.append
          [| append_child_var ^ "=" ^ path |]
          (Unix.environment ())
      in
      let pids =
        List.init children (fun _ ->
            Unix.create_process_env Sys.executable_name
              [| Sys.executable_name |]
              env Unix.stdin Unix.stdout Unix.stderr)
      in
      List.iter
        (fun pid ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> Alcotest.fail "an appending child failed")
        pids;
      match Bench_diff.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok records ->
          Alcotest.(check int) "every record kept"
            (children * appends_per_child)
            (List.length records))

let test_bench_diff_last_record_wins () =
  let baseline = [ record ~host:"vm" ~cores:1 ~section:"t" ~jobs:1 10.0 ] in
  let current =
    [
      record ~host:"vm" ~cores:1 ~section:"t" ~jobs:1 50.0 (* stale *);
      record ~host:"vm" ~cores:1 ~section:"t" ~jobs:1 10.5 (* newest *);
    ]
  in
  let d = Bench_diff.diff ~baseline ~current in
  match d.deltas with
  | [ dl ] -> Alcotest.(check (float 1e-9)) "newest compared" 10.5 dl.current_s
  | ds -> Alcotest.failf "expected one delta, got %d" (List.length ds)

(* Each baseline record gates with its own bound: both sections are 30%
   slower, which only the record bounded at 25% rejects.  A comparable
   baseline record without a bound fails to load; one without a manifest
   is never compared, so it needs none. *)
let test_bench_diff_bounds_per_record () =
  let baseline bound =
    Printf.sprintf
      {|[
  {"section": "table1", "scale": "smoke", "jobs": 2, "seconds": 10.0, "host": "vm", "cores": 1%s},
  {"section": "serve", "scale": "smoke", "jobs": 4, "seconds": 10.0, "host": "vm", "cores": 1, "max_regress": 50},
  {"section": "fig6", "scale": "smoke", "jobs": 2, "seconds": 10.0}
]|}
      bound
  in
  let current =
    [
      record ~host:"vm" ~cores:1 ~section:"table1" ~jobs:2 13.0;
      record ~host:"vm" ~cores:1 ~section:"serve" ~jobs:4 13.0;
    ]
  in
  with_temp_file (baseline {|, "max_regress": 25|}) (fun path ->
      match Bench_diff.load_baseline path with
      | Error e -> Alcotest.failf "load_baseline: %s" e
      | Ok baseline ->
          let d = Bench_diff.diff ~baseline ~current in
          Alcotest.(check (list (pair string (option (float 0.0)))))
            "bounds come from the baseline"
            [ ("table1", Some 25.0); ("serve", Some 50.0) ]
            (List.map
               (fun (dl : Bench_diff.delta) -> (dl.section, dl.max_regress))
               d.deltas);
          Alcotest.(check (list string))
            "only the 25% record regresses" [ "table1" ]
            (List.map
               (fun (dl : Bench_diff.delta) -> dl.section)
               (Bench_diff.regressions d)));
  with_temp_file (baseline "") (fun path ->
      match Bench_diff.load_baseline path with
      | Ok _ -> Alcotest.fail "loaded a comparable record without a bound"
      | Error _ -> ())

let () =
  Option.iter append_child (Sys.getenv_opt append_child_var);
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "int/float distinct" `Quick
            test_json_int_float_distinct;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span tree stable across jobs" `Quick
            test_span_tree_stable_across_jobs;
          Alcotest.test_case "error flag" `Quick test_span_error_flag;
          Alcotest.test_case "add_attrs" `Quick test_add_attrs;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry identity and kinds" `Quick
            test_registry_identity_and_kinds;
          Alcotest.test_case "counter contention" `Quick
            test_counter_contention;
          Alcotest.test_case "prometheus exposition" `Quick test_render_prom;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "underflow and empty" `Quick
            test_quantile_underflow_and_empty;
          Alcotest.test_case "json round-trip" `Quick
            test_quantile_json_roundtrip;
          Alcotest.test_case "merged sketches identical at jobs=1 and jobs=4"
            `Quick test_sketch_jobs_invariant;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_rank_error; prop_merge_commutative; prop_merge_associative ]
      );
      ( "flight",
        [
          Alcotest.test_case "ring wraparound" `Quick test_flight_wraparound;
          Alcotest.test_case "per-domain isolation" `Quick
            test_flight_domain_isolation;
          Alcotest.test_case "output identical with recorder on" `Slow
            test_output_identical_with_flight;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "rotation and load_all" `Quick
            test_snapshot_rotation;
        ] );
      ( "manifest",
        [ Alcotest.test_case "round-trip" `Quick test_manifest_roundtrip ] );
      ( "summary",
        [
          Alcotest.test_case "self-time attribution" `Quick
            test_summary_self_time;
          Alcotest.test_case "rejects garbage" `Quick
            test_summary_rejects_garbage;
        ] );
      ( "bench-diff",
        [
          Alcotest.test_case "detects 2x slowdown" `Quick
            test_bench_diff_regression;
          Alcotest.test_case "skips incompatible manifests" `Quick
            test_bench_diff_skips_incompatible;
          Alcotest.test_case "parses manifest:null records" `Quick
            test_bench_diff_parses_null_manifest;
          Alcotest.test_case "last record wins" `Quick
            test_bench_diff_last_record_wins;
          Alcotest.test_case "writer round-trips through record_of_json"
            `Quick test_bench_record_roundtrip;
          Alcotest.test_case "append keeps pretty-printed records" `Quick
            test_bench_append_keeps_pretty_records;
          Alcotest.test_case "append refuses malformed files" `Quick
            test_bench_append_refuses_malformed;
          Alcotest.test_case "concurrent appends keep every record" `Quick
            test_bench_append_concurrent;
          Alcotest.test_case "bounds per record" `Quick
            test_bench_diff_bounds_per_record;
          Alcotest.test_case "pass verdict" `Quick
            test_bench_diff_verdict_pass;
          Alcotest.test_case "skip verdict" `Quick
            test_bench_diff_verdict_skip;
          Alcotest.test_case "regression verdict" `Quick
            test_bench_diff_verdict_regression;
        ] );
      ( "integration",
        [
          Alcotest.test_case "output identical with tracing" `Slow
            test_output_identical_with_tracing;
        ] );
    ]
