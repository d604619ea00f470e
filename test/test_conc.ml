(* The concurrency-analysis layer: vector-clock laws, FastTrack epoch
   handling, the cooperative model-checking scheduler, race/deadlock
   detection on deliberately-broken fixtures, and schedule-invariance of
   the execution engine's observable behavior at any job count. *)

module Vclock = Altune_conc.Vclock
module Racecheck = Altune_conc.Racecheck
module Sched = Altune_conc.Sched
module Policy = Altune_conc.Policy
module Scenarios = Altune_conc.Scenarios
module Explore = Altune_conc.Explore
module Bench_diff = Altune_obs.Bench_diff
module Json = Altune_obs.Json
module Rng = Altune_prng.Rng

(* --- Vclock: partial-order laws (QCheck) ------------------------------- *)

let clock_gen = QCheck.(list_of_size QCheck.Gen.(int_range 0 6) (int_bound 5))

let prop_leq_reflexive =
  QCheck.Test.make ~name:"leq is reflexive" ~count:200 clock_gen (fun l ->
      let v = Vclock.of_list l in
      Vclock.leq v v)

let prop_join_upper_bound =
  QCheck.Test.make ~name:"join is an upper bound of both arguments"
    ~count:200
    QCheck.(pair clock_gen clock_gen)
    (fun (la, lb) ->
      let a = Vclock.of_list la and b = Vclock.of_list lb in
      let j = Vclock.copy a in
      Vclock.join ~into:j b;
      Vclock.leq a j && Vclock.leq b j)

let prop_join_commutative =
  QCheck.Test.make ~name:"join is commutative" ~count:200
    QCheck.(pair clock_gen clock_gen)
    (fun (la, lb) ->
      let ab = Vclock.of_list la in
      Vclock.join ~into:ab (Vclock.of_list lb);
      let ba = Vclock.of_list lb in
      Vclock.join ~into:ba (Vclock.of_list la);
      Vclock.to_list ab = Vclock.to_list ba)

let prop_join_monotone =
  QCheck.Test.make ~name:"join is monotone (a <= b implies a+c <= b+c)"
    ~count:200
    QCheck.(triple clock_gen clock_gen clock_gen)
    (fun (la, lb, lc) ->
      let a = Vclock.of_list la and b = Vclock.of_list lb in
      (* Force a <= b by joining a into b first. *)
      Vclock.join ~into:b a;
      let ac = Vclock.copy a and bc = Vclock.copy b in
      Vclock.join ~into:ac (Vclock.of_list lc);
      Vclock.join ~into:bc (Vclock.of_list lc);
      Vclock.leq ac bc)

let prop_compare_po_consistent =
  QCheck.Test.make ~name:"compare_po agrees with leq both ways" ~count:200
    QCheck.(pair clock_gen clock_gen)
    (fun (la, lb) ->
      let a = Vclock.of_list la and b = Vclock.of_list lb in
      let le = Vclock.leq a b and ge = Vclock.leq b a in
      match Vclock.compare_po a b with
      | `Equal -> le && ge
      | `Less -> le && not ge
      | `Greater -> ge && not le
      | `Concurrent -> (not le) && not ge)

let prop_incr_get =
  QCheck.Test.make ~name:"incr bumps exactly one component" ~count:200
    QCheck.(pair clock_gen (int_bound 5))
    (fun (l, i) ->
      let v = Vclock.of_list l in
      let before = List.init 8 (Vclock.get v) in
      Vclock.incr v i;
      List.for_all
        (fun j ->
          Vclock.get v j = List.nth before j + if j = i then 1 else 0)
        (List.init 8 Fun.id))

let prop_epoch_round_trip =
  QCheck.Test.make ~name:"epoch tid/clock round-trip" ~count:200
    QCheck.(pair (int_bound 1000) (int_range 1 100_000))
    (fun (tid, clock) ->
      let e = Vclock.epoch ~tid ~clock in
      Vclock.epoch_tid e = tid
      && Vclock.epoch_clock e = clock
      && not (Vclock.is_none e))

let prop_epoch_leq_matches_component =
  QCheck.Test.make ~name:"epoch_leq is the O(1) component comparison"
    ~count:200
    QCheck.(triple clock_gen (int_bound 5) (int_range 1 8))
    (fun (l, tid, clock) ->
      let c = Vclock.of_list l in
      let e = Vclock.epoch ~tid ~clock in
      Vclock.epoch_leq e c = (clock <= Vclock.get c tid))

let test_epoch_none () =
  Alcotest.(check bool) "none is none" true (Vclock.is_none Vclock.none);
  Alcotest.(check bool)
    "none below everything" true
    (Vclock.epoch_leq Vclock.none (Vclock.create ()))

(* --- FastTrack: epoch-vs-vector promotion edge cases ------------------- *)

let kinds rc = List.map (fun (r : Racecheck.race) -> r.r_kind) (Racecheck.races rc)

let test_read_share_promotion () =
  (* Two concurrent readers promote the cell's read epoch to a full
     vector; a later write unordered with one of them must race against
     that reader, not just the last one. *)
  let rc = Racecheck.create () in
  Racecheck.start_thread rc ~tid:0;
  Racecheck.fork rc ~parent:0 ~child:1;
  Racecheck.fork rc ~parent:0 ~child:2;
  Racecheck.read rc ~tid:1 ~loc:1 ~name:"x" ~site:"t1 read";
  Racecheck.read rc ~tid:2 ~loc:1 ~name:"x" ~site:"t2 read";
  Alcotest.(check (list string)) "concurrent reads don't race" [] (kinds rc);
  Racecheck.write rc ~tid:1 ~loc:1 ~name:"x" ~site:"t1 write";
  Alcotest.(check (list string)) "read-write on promotion" [ "read-write" ]
    (kinds rc);
  match Racecheck.races rc with
  | [ r ] ->
      Alcotest.(check string) "first site" "t2 read" r.r_first.a_site;
      Alcotest.(check string) "second site" "t1 write" r.r_second.a_site
  | rs -> Alcotest.failf "expected exactly one race, got %d" (List.length rs)

let test_join_orders_read () =
  (* After joining the reader, a write is ordered: no false positive. *)
  let rc = Racecheck.create () in
  Racecheck.start_thread rc ~tid:0;
  Racecheck.fork rc ~parent:0 ~child:1;
  Racecheck.read rc ~tid:1 ~loc:1 ~name:"x" ~site:"child read";
  Racecheck.join rc ~parent:0 ~child:1;
  Racecheck.write rc ~tid:0 ~loc:1 ~name:"x" ~site:"parent write";
  Alcotest.(check (list string)) "join orders the accesses" [] (kinds rc)

let test_lock_orders_writes () =
  let rc = Racecheck.create () in
  Racecheck.start_thread rc ~tid:0;
  Racecheck.fork rc ~parent:0 ~child:1;
  Racecheck.fork rc ~parent:0 ~child:2;
  Racecheck.acquire rc ~tid:1 ~lock:7;
  Racecheck.write rc ~tid:1 ~loc:1 ~name:"x" ~site:"t1 locked write";
  Racecheck.release rc ~tid:1 ~lock:7;
  Racecheck.acquire rc ~tid:2 ~lock:7;
  Racecheck.write rc ~tid:2 ~loc:1 ~name:"x" ~site:"t2 locked write";
  Racecheck.release rc ~tid:2 ~lock:7;
  Alcotest.(check (list string)) "lock hand-off orders writes" [] (kinds rc)

let test_unlocked_writes_race () =
  let rc = Racecheck.create () in
  Racecheck.start_thread rc ~tid:0;
  Racecheck.fork rc ~parent:0 ~child:1;
  Racecheck.fork rc ~parent:0 ~child:2;
  Racecheck.write rc ~tid:1 ~loc:1 ~name:"x" ~site:"t1 write";
  Racecheck.write rc ~tid:2 ~loc:1 ~name:"x" ~site:"t2 write";
  match Racecheck.races rc with
  | [ r ] ->
      Alcotest.(check string) "kind" "write-write" r.r_kind;
      Alcotest.(check string) "both sites named (first)" "t1 write"
        r.r_first.a_site;
      Alcotest.(check string) "both sites named (second)" "t2 write"
        r.r_second.a_site
  | rs -> Alcotest.failf "expected exactly one race, got %d" (List.length rs)

let test_same_thread_never_races () =
  let rc = Racecheck.create () in
  Racecheck.start_thread rc ~tid:0;
  Racecheck.read rc ~tid:0 ~loc:1 ~name:"x" ~site:"r";
  Racecheck.write rc ~tid:0 ~loc:1 ~name:"x" ~site:"w";
  Racecheck.read rc ~tid:0 ~loc:1 ~name:"x" ~site:"r2";
  Alcotest.(check (list string)) "program order is happens-before" []
    (kinds rc)

(* --- Explorer: fixtures and engine scenarios --------------------------- *)

let must_find name =
  match Scenarios.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %s missing from catalog" name

let test_broken_memo_detected () =
  let r = Explore.run_scenario ~budget:200 ~seed:7 (must_find "broken_memo") in
  Alcotest.(check bool) "fixture passes (race expected and found)" true
    r.passed;
  Alcotest.(check bool) "at least one race" true (r.races <> []);
  List.iter
    (fun (race : Racecheck.race) ->
      Alcotest.(check bool) "first access site named" true
        (String.length race.r_first.a_site > 0);
      Alcotest.(check bool) "second access site named" true
        (String.length race.r_second.a_site > 0);
      Alcotest.(check bool) "sites point into the fixture" true
        (String.length race.r_loc > 0 && race.r_loc = "broken_memo.tbl"))
    r.races

let test_broken_wakeup_deadlocks () =
  let r =
    Explore.run_scenario ~budget:100 ~seed:7 (must_find "broken_wakeup")
  in
  Alcotest.(check bool) "fixture passes (deadlock expected and found)" true
    r.passed;
  Alcotest.(check bool) "deadlocked schedules found" true (r.deadlocks > 0);
  Alcotest.(check bool) "small space exhausted" true r.exhausted

let test_locked_counter_proved () =
  let r =
    Explore.run_scenario ~budget:1000 ~seed:7 (must_find "locked_counter")
  in
  Alcotest.(check bool) "passes" true r.passed;
  Alcotest.(check bool) "space exhausted (a bounded proof)" true r.exhausted;
  Alcotest.(check int) "no races" 0 (List.length r.races);
  Alcotest.(check int) "no deadlocks" 0 r.deadlocks

let test_engine_scenarios_clean () =
  List.iter
    (fun name ->
      let r = Explore.run_scenario ~budget:300 ~seed:11 (must_find name) in
      if not r.passed then
        Alcotest.failf "scenario %s failed:\n%s" name
          (Explore.report_to_string r);
      Alcotest.(check bool)
        (name ^ " explored more than one interleaving")
        true (r.distinct > 1))
    [
      "pool_map_j3";
      "pool_nested";
      "pool_exception";
      "memo_share";
      "memo_retry";
      "memo_clear";
      "memo_evict";
      "fault_retry";
    ]

let test_explore_deterministic () =
  let run () = Explore.run_scenario ~budget:150 ~seed:5 (must_find "memo_share") in
  let a = run () and b = run () in
  Alcotest.(check int) "schedules" a.schedules_run b.schedules_run;
  Alcotest.(check int) "distinct" a.distinct b.distinct;
  Alcotest.(check int) "pruned" a.pruned b.pruned;
  Alcotest.(check int) "steps" a.steps_total b.steps_total

(* --- Schedule-invariance across job counts ----------------------------- *)

(* The engine's promise: progress events (as a multiset), results and
   hit/miss counter deltas do not depend on scheduling — so the
   fingerprint set over many explored schedules must be a singleton, and
   the same singleton at jobs=1 and jobs=4. *)
let fingerprints sc ~seed ~n =
  let acc = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    let rng = Rng.create ~seed:(Rng.derive ~seed [ S "fp"; I i ]) in
    let fp = ref None in
    let o =
      Sched.run ~policy:(Policy.random ~rng) (fun () ->
          fp := Some (sc.Scenarios.run ()))
    in
    (match o.Sched.result with
    | Ok () -> ()
    | Error e -> Alcotest.failf "scenario body failed: %s" (Printexc.to_string e));
    match !fp with Some f -> Hashtbl.replace acc f () | None -> ()
  done;
  List.sort compare (Hashtbl.fold (fun k () l -> k :: l) acc [])

let test_jobs_invariance () =
  let j1 = fingerprints (Scenarios.pool_map ~jobs:1) ~seed:3 ~n:10 in
  let j4 = fingerprints (Scenarios.pool_map ~jobs:4) ~seed:3 ~n:40 in
  Alcotest.(check int) "jobs=1 fingerprint is unique" 1 (List.length j1);
  Alcotest.(check int) "jobs=4 fingerprint is unique" 1 (List.length j4);
  (* The fingerprint strings embed the scenario name (which includes the
     job count) nowhere — they are directly comparable. *)
  Alcotest.(check (list string))
    "events and counters identical at jobs=1 and jobs=4" j1 j4

(* --- bench-diff tolerates concheck throughput records ------------------ *)

let record_exn s =
  match Result.bind (Json.of_string s) Bench_diff.record_of_json with
  | Ok r -> r
  | Error e -> Alcotest.failf "record: %s" e

let test_bench_diff_mixed_records () =
  let timing host =
    record_exn
      (Printf.sprintf
         {|{"section": "table1", "scale": "smoke", "jobs": 2, "seconds": 3.0, "host": %S, "cores": 8}|}
         host)
  in
  let concheck seconds rate =
    record_exn
      (Printf.sprintf
         {|{"section": "concheck", "scale": "conc", "jobs": 1, "seconds": %f, "host": "h", "cores": 8, "schedules": 20000, "rate": %f, "rate_unit": "sched/s"}|}
         seconds rate)
  in
  (* Baseline without any concheck record: the new record is unmatched,
     never an error. *)
  let d = Bench_diff.diff ~baseline:[ timing "h" ] ~current:[ timing "h"; concheck 1.0 20000.0 ] in
  Alcotest.(check int) "timing pair matched" 1 (List.length d.deltas);
  Alcotest.(check int) "concheck record unmatched, not fatal" 1 d.unmatched;
  Alcotest.(check (list string)) "no regression" []
    (List.map
       (fun (dl : Bench_diff.delta) -> dl.section)
       (Bench_diff.regressions d));
  (* Both sides carry the concheck record: compared on seconds, rate
     rendered for context. *)
  let d2 =
    Bench_diff.diff
      ~baseline:[ concheck 1.0 20000.0 ]
      ~current:[ concheck 1.1 18000.0 ]
  in
  Alcotest.(check int) "concheck pair matched" 1 (List.length d2.deltas);
  let rendered = Bench_diff.render d2 in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "rate shown" true (contains rendered "sched/s")

let () =
  Alcotest.run "conc"
    [
      ( "vclock",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_leq_reflexive;
            prop_join_upper_bound;
            prop_join_commutative;
            prop_join_monotone;
            prop_compare_po_consistent;
            prop_incr_get;
            prop_epoch_round_trip;
            prop_epoch_leq_matches_component;
          ]
        @ [ Alcotest.test_case "epoch none" `Quick test_epoch_none ] );
      ( "fasttrack",
        [
          Alcotest.test_case "read-share promotion" `Quick
            test_read_share_promotion;
          Alcotest.test_case "join orders read" `Quick test_join_orders_read;
          Alcotest.test_case "lock orders writes" `Quick
            test_lock_orders_writes;
          Alcotest.test_case "unlocked writes race" `Quick
            test_unlocked_writes_race;
          Alcotest.test_case "program order" `Quick
            test_same_thread_never_races;
        ] );
      ( "explore",
        [
          Alcotest.test_case "broken memo detected" `Quick
            test_broken_memo_detected;
          Alcotest.test_case "broken wakeup deadlocks" `Quick
            test_broken_wakeup_deadlocks;
          Alcotest.test_case "locked counter proved" `Quick
            test_locked_counter_proved;
          Alcotest.test_case "engine scenarios clean" `Quick
            test_engine_scenarios_clean;
          Alcotest.test_case "deterministic reports" `Quick
            test_explore_deterministic;
        ] );
      ( "invariance",
        [ Alcotest.test_case "jobs 1 vs 4" `Quick test_jobs_invariance ] );
      ( "bench-diff",
        [
          Alcotest.test_case "mixed record files" `Quick
            test_bench_diff_mixed_records;
        ] );
    ]
