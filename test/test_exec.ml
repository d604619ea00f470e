(* The deterministic parallel execution engine: pool ordering, exception
   propagation, progress events, nested fan-out, the compute-once memo,
   and bit-identical experiment curves at any job count. *)

module Pool = Altune_exec.Pool
module Memo = Altune_exec.Memo
module Metrics = Altune_obs.Metrics
module Runs = Altune_experiments.Runs
module Scale = Altune_experiments.Scale
module Spapt = Altune_spapt.Spapt
module Rng = Altune_prng.Rng
module Learner = Altune_core.Learner

(* --- Pool ------------------------------------------------------------- *)

let test_map_sizes () =
  Pool.with_pool ~jobs:3 (fun p ->
      Alcotest.(check (list int)) "empty" [] (Pool.map p (fun x -> x) []);
      Alcotest.(check (list int)) "one" [ 9 ] (Pool.map p (fun x -> x * x) [ 3 ]);
      let n = 100 in
      let xs = List.init n (fun i -> i) in
      Alcotest.(check (list int))
        "many, in input order"
        (List.map (fun x -> x * x) xs)
        (Pool.map p (fun x -> x * x) xs))

let test_map_jobs_one_inline () =
  (* jobs=1 spawns no domains and runs inline; still the same results. *)
  Pool.with_pool ~jobs:1 (fun p ->
      Alcotest.(check (list int))
        "sequential pool" [ 1; 4; 9 ]
        (Pool.map p (fun x -> x * x) [ 1; 2; 3 ]))

let test_mapi () =
  Pool.with_pool ~jobs:2 (fun p ->
      Alcotest.(check (list int))
        "index passed" [ 10; 21; 32 ]
        (Pool.mapi p (fun i x -> (10 * x) + i) [ 1; 2; 3 ]))

let test_map_reduce () =
  Pool.with_pool ~jobs:4 (fun p ->
      let n = 200 in
      let total =
        Pool.map_reduce p
          ~map:(fun x -> x * x)
          ~reduce:( + ) ~init:0
          (List.init n (fun i -> i))
      in
      let expect = n * (n - 1) * ((2 * n) - 1) / 6 in
      Alcotest.(check int) "sum of squares" expect total)

exception Boom of int

let test_exception_propagation () =
  (* Every task still runs (no silent loss), and the lowest-indexed
     failure is the one re-raised. *)
  let ran = Atomic.make 0 in
  Pool.with_pool ~jobs:4 (fun p ->
      match
        Pool.map p
          (fun i ->
            Atomic.incr ran;
            if i = 3 || i = 7 then raise (Boom i);
            i)
          (List.init 10 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
          Alcotest.(check int) "first failure by index" 3 i;
          Alcotest.(check int) "all tasks ran" 10 (Atomic.get ran))

let test_nested_exception_original () =
  (* A raise inside a *nested* fan-out must surface the original
     exception (constructor and payload intact, backtrace captured at the
     raise site), not a helper-mangled one — and every inner task still
     runs. *)
  let ran = Atomic.make 0 in
  Pool.with_pool ~jobs:2 (fun p ->
      match
        Pool.map p
          (fun row ->
            Pool.map p
              (fun col ->
                Atomic.incr ran;
                if row = 2 && col = 1 then raise (Boom ((10 * row) + col));
                col)
              [ 0; 1; 2 ])
          [ 1; 2; 3 ]
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom v ->
          Alcotest.(check int) "original payload through nested fan-out" 21 v;
          Alcotest.(check int) "inner batch fully drained" 9 (Atomic.get ran))

let test_pool_survives_failed_batch () =
  Pool.with_pool ~jobs:2 (fun p ->
      (match Pool.map p (fun () -> failwith "x") [ (); () ] with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure _ -> ());
      Alcotest.(check (list int))
        "next batch fine" [ 2; 4 ]
        (Pool.map p (fun x -> 2 * x) [ 1; 2 ]))

let test_progress_events () =
  let log = ref [] in
  let lock = Mutex.create () in
  let on_event e =
    Mutex.lock lock;
    log := e :: !log;
    Mutex.unlock lock
  in
  Pool.with_pool ~on_event ~jobs:3 (fun p ->
      ignore (Pool.map ~label:(fun i -> Printf.sprintf "t%d" i) p
                (fun x -> x) (List.init 8 (fun i -> i))));
  let events = List.rev !log in
  let started, finished =
    List.partition (function Pool.Task_started _ -> true | _ -> false) events
  in
  Alcotest.(check int) "8 started" 8 (List.length started);
  Alcotest.(check int) "8 finished" 8 (List.length finished);
  List.iter
    (function
      | Pool.Task_finished { index; label; wall_seconds } ->
          Alcotest.(check string)
            "label carries task name"
            (Printf.sprintf "t%d" index)
            label;
          Alcotest.(check bool) "non-negative wall time" true
            (wall_seconds >= 0.0)
      | Pool.Task_started { index; label } ->
          Alcotest.(check string)
            "label carries task name"
            (Printf.sprintf "t%d" index)
            label)
    events

let test_nested_map () =
  (* A task fanning out again on the same pool must not deadlock: the
     inner map helps drain the queue. *)
  Pool.with_pool ~jobs:2 (fun p ->
      let grids =
        Pool.map p
          (fun row -> Pool.map p (fun col -> (10 * row) + col) [ 0; 1; 2 ])
          [ 1; 2; 3 ]
      in
      Alcotest.(check (list (list int)))
        "nested results"
        [ [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ] ]
        grids)

let test_default_jobs () =
  Alcotest.(check bool) "at least one" true (Pool.default_jobs () >= 1);
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Pool.create: jobs must be at least 1") (fun () ->
      ignore (Pool.create ~jobs:0 ()))

(* --- Memo ------------------------------------------------------------- *)

let test_memo_compute_once () =
  let m : (string, int) Memo.t = Memo.create () in
  let calls = Atomic.make 0 in
  let compute () =
    Atomic.incr calls;
    41 + 1
  in
  Alcotest.(check int) "computed" 42 (Memo.find_or_compute m "k" compute);
  Alcotest.(check int) "cached" 42 (Memo.find_or_compute m "k" compute);
  Alcotest.(check int) "one computation" 1 (Atomic.get calls);
  Alcotest.(check (option int)) "find_opt" (Some 42) (Memo.find_opt m "k");
  Alcotest.(check bool) "mem" true (Memo.mem m "k");
  Alcotest.(check int) "length" 1 (Memo.length m);
  Memo.clear m;
  Alcotest.(check (option int)) "cleared" None (Memo.find_opt m "k")

let test_memo_concurrent_compute_once () =
  (* Many domains asking for the same key: the slow computation runs once
     and everyone shares the value. *)
  let m : (int, int) Memo.t = Memo.create () in
  let calls = Atomic.make 0 in
  Pool.with_pool ~jobs:4 (fun p ->
      let vs =
        Pool.map p
          (fun _ ->
            Memo.find_or_compute m 7 (fun () ->
                Atomic.incr calls;
                Unix.sleepf 0.05;
                700))
          (List.init 8 (fun i -> i))
      in
      Alcotest.(check (list int)) "shared value" (List.init 8 (fun _ -> 700)) vs);
  Alcotest.(check int) "computed once" 1 (Atomic.get calls)

let test_memo_failure_retries () =
  let m : (string, int) Memo.t = Memo.create () in
  let calls = Atomic.make 0 in
  (match
     Memo.find_or_compute m "k" (fun () ->
         Atomic.incr calls;
         failwith "flaky")
   with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  Alcotest.(check int) "entry dropped, retry computes" 5
    (Memo.find_or_compute m "k" (fun () ->
         Atomic.incr calls;
         5));
  Alcotest.(check int) "two calls" 2 (Atomic.get calls)

(* Bounded tables: an evicted key is recomputed, to the same value. *)
let test_memo_capacity_recomputes () =
  let m : (int, int) Memo.t = Memo.create ~capacity:2 ~name:"test.cap" () in
  let evictions = Metrics.counter "test.cap.evictions" in
  let e0 = Metrics.counter_value evictions in
  let calls = Atomic.make 0 in
  let square k () =
    Atomic.incr calls;
    k * k
  in
  List.iter (fun k -> ignore (Memo.find_or_compute m k (square k))) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "bounded" 2 (Memo.length m);
  Alcotest.(check int) "evictions counted" 2
    (Metrics.counter_value evictions - e0);
  Alcotest.(check (option int)) "oldest evicted" None (Memo.find_opt m 1);
  Alcotest.(check int) "recomputed value equals a fresh computation" 1
    (Memo.find_or_compute m 1 (square 1));
  Alcotest.(check int) "recomputation ran" 5 (Atomic.get calls);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Memo.create: capacity must be >= 1") (fun () ->
      ignore (Memo.create ~capacity:0 () : (int, int) Memo.t))

(* Second chance: a key hit since the sweep last passed survives one
   eviction round; an unreferenced one goes first. *)
let test_memo_capacity_second_chance () =
  let m : (string, int) Memo.t = Memo.create ~capacity:2 () in
  ignore (Memo.find_or_compute m "old" (fun () -> 1));
  ignore (Memo.find_or_compute m "new" (fun () -> 2));
  ignore (Memo.find_or_compute m "old" (fun () -> 1));
  ignore (Memo.find_or_compute m "third" (fun () -> 3));
  Alcotest.(check bool) "referenced oldest kept" true (Memo.mem m "old");
  Alcotest.(check bool) "unreferenced evicted" false (Memo.mem m "new")

(* An in-flight key is never evicted, however much the table churns while
   it computes; a caller waiting on it gets the value without a second
   computation. *)
let test_memo_capacity_in_flight () =
  let m : (string, int) Memo.t =
    Memo.create ~capacity:1 ~name:"test.inflight" ()
  in
  let waits = Metrics.counter "test.inflight.waits" in
  let w0 = Metrics.counter_value waits in
  let calls = Atomic.make 0 in
  let started = Atomic.make false and release = Atomic.make false in
  let compute_a () =
    Atomic.incr calls;
    Atomic.set started true;
    while not (Atomic.get release) do
      Domain.cpu_relax ()
    done;
    7
  in
  let computer = Domain.spawn (fun () -> Memo.find_or_compute m "a" compute_a) in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  List.iteri
    (fun i k -> ignore (Memo.find_or_compute m k (fun () -> i)))
    [ "b"; "c"; "d" ];
  let waiter = Domain.spawn (fun () -> Memo.find_or_compute m "a" compute_a) in
  while Metrics.counter_value waits = w0 do
    Domain.cpu_relax ()
  done;
  Atomic.set release true;
  Alcotest.(check int) "computer's value" 7 (Domain.join computer);
  Alcotest.(check int) "waiter's value" 7 (Domain.join waiter);
  Alcotest.(check int) "computed once" 1 (Atomic.get calls);
  Alcotest.(check (option int)) "published after the churn" (Some 7)
    (Memo.find_opt m "a")

(* A waiter whose key is published and then evicted before it wakes
   recomputes the key itself.  Which interleaving a run takes depends on
   the schedule (the memo_evict concurrency scenario explores them all);
   every run must hand each caller its own key's value. *)
let test_memo_capacity_evicted_waiter () =
  for _ = 1 to 50 do
    let m : (string, int) Memo.t = Memo.create ~capacity:1 () in
    let go k v = Domain.spawn (fun () -> Memo.find_or_compute m k (fun () -> v)) in
    let a1 = go "a" 1 and a2 = go "a" 1 and b = go "b" 2 in
    Alcotest.(check (list int)) "values" [ 1; 1; 2 ]
      (List.map Domain.join [ a1; a2; b ])
  done

(* --- Seed derivation --------------------------------------------------- *)

let test_derive_distinct () =
  (* The keys actually used by the experiment layer must be pairwise
     distinct (the Hashtbl.hash predecessor collided on such families). *)
  let seeds =
    List.concat_map
      (fun tag ->
        List.concat_map
          (fun name ->
            List.init 10 (fun r -> Rng.derive ~seed:42 [ S tag; I r; S name ]))
          [ "mm"; "mvt"; "adi"; "lu" ])
      [ "fixed"; "one"; "adaptive" ]
  in
  let distinct = List.sort_uniq compare seeds in
  Alcotest.(check int) "no collisions" (List.length seeds)
    (List.length distinct);
  List.iter
    (fun s -> Alcotest.(check bool) "non-negative" true (s >= 0))
    seeds;
  Alcotest.(check bool) "master seed matters" true
    (Rng.derive ~seed:1 [ S "a" ] <> Rng.derive ~seed:2 [ S "a" ]);
  Alcotest.(check bool) "structure matters" true
    (Rng.derive ~seed:1 [ S "ab" ] <> Rng.derive ~seed:1 [ S "a"; S "b" ]);
  Alcotest.(check bool) "int is not its digits" true
    (Rng.derive ~seed:1 [ I 12 ] <> Rng.derive ~seed:1 [ S "12" ]);
  Alcotest.(check int) "deterministic" (Rng.derive ~seed:9 [ S "x"; I 3 ])
    (Rng.derive ~seed:9 [ S "x"; I 3 ])

(* --- Determinism of the experiment layer ------------------------------- *)

let curve_eq (a : Learner.eval_point list) (b : Learner.eval_point list) =
  List.length a = List.length b
  && List.for_all2
       (fun (p : Learner.eval_point) (q : Learner.eval_point) ->
         p.iteration = q.iteration && p.examples = q.examples
         && p.observations = q.observations
         && Float.equal p.cost_seconds q.cost_seconds
         && Float.equal p.rmse q.rmse)
       a b

let test_curves_deterministic_across_jobs () =
  (* The acceptance criterion: curves_for at jobs=1 and jobs=4 must be
     bit-identical. *)
  let run jobs =
    Runs.set_jobs jobs;
    Runs.clear_cache ();
    Runs.curves_for (Spapt.create "lu") Scale.smoke ~seed:3
  in
  let seq = run 1 in
  let par = run 4 in
  Runs.set_jobs 1;
  Alcotest.(check string) "same bench" seq.bench par.bench;
  Alcotest.(check bool) "fixed plan identical" true
    (curve_eq seq.all_observations par.all_observations);
  Alcotest.(check bool) "one-observation plan identical" true
    (curve_eq seq.one_observation par.one_observation);
  Alcotest.(check bool) "adaptive plan identical" true
    (curve_eq seq.variable_observations par.variable_observations)

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map sizes" `Quick test_map_sizes;
          Alcotest.test_case "jobs=1 inline" `Quick test_map_jobs_one_inline;
          Alcotest.test_case "mapi" `Quick test_mapi;
          Alcotest.test_case "map_reduce" `Quick test_map_reduce;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested fan-out raises original" `Quick
            test_nested_exception_original;
          Alcotest.test_case "pool survives failed batch" `Quick
            test_pool_survives_failed_batch;
          Alcotest.test_case "progress events" `Quick test_progress_events;
          Alcotest.test_case "nested map" `Quick test_nested_map;
          Alcotest.test_case "default jobs" `Quick test_default_jobs;
        ] );
      ( "memo",
        [
          Alcotest.test_case "compute once" `Quick test_memo_compute_once;
          Alcotest.test_case "concurrent compute once" `Quick
            test_memo_concurrent_compute_once;
          Alcotest.test_case "failure retries" `Quick
            test_memo_failure_retries;
          Alcotest.test_case "capacity recomputes evicted keys" `Quick
            test_memo_capacity_recomputes;
          Alcotest.test_case "capacity second chance" `Quick
            test_memo_capacity_second_chance;
          Alcotest.test_case "capacity never evicts in-flight" `Quick
            test_memo_capacity_in_flight;
          Alcotest.test_case "capacity evicted waiter" `Quick
            test_memo_capacity_evicted_waiter;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "derived seeds distinct" `Quick
            test_derive_distinct;
          Alcotest.test_case "curves identical at jobs=1 and jobs=4" `Slow
            test_curves_deterministic_across_jobs;
        ] );
    ]
