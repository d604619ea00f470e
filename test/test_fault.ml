(* Fault injection, retry/backoff accounting, dead-config handling, and
   checkpoint/resume: the fault model must be deterministic and
   schedule-free, a resumed run must reproduce the uninterrupted run
   exactly, and a fault-free run must behave as if the fault machinery
   did not exist. *)

module Fault = Altune_exec.Fault
module Problem = Altune_core.Problem
module Cost = Altune_core.Cost
module Dataset = Altune_core.Dataset
module Learner = Altune_core.Learner
module Checkpoint = Altune_core.Checkpoint
module Events = Altune_obs.Events
module Runs = Altune_experiments.Runs
module Scale = Altune_experiments.Scale
module Spapt = Altune_spapt.Spapt
module Rng = Altune_prng.Rng

(* Same synthetic fixture as test_core: 2 integer knobs, smooth bowl plus
   heteroskedastic noise, so learner behaviour is checkable without the
   SPAPT stack. *)
let synthetic ?(noise = 0.05) () =
  let truth c =
    let x = float_of_int c.(0) and y = float_of_int c.(1) in
    1.0
    +. (0.01 *. ((x -. 12.0) ** 2.0))
    +. (0.02 *. ((y -. 5.0) ** 2.0))
  in
  let sigma c = if c.(0) < 5 && c.(1) < 5 then 4.0 *. noise else noise in
  {
    Problem.name = "synthetic";
    dim = 2;
    space_size = 400.0;
    random_config = (fun rng -> [| Rng.int rng 20; Rng.int rng 20 |]);
    features =
      (fun c -> Array.map (fun v -> (float_of_int v -. 9.5) /. 5.766) c);
    measure =
      (fun ~rng ~run_index c ->
        ignore run_index;
        Float.max 1e-6 (truth c *. (1.0 +. Rng.normal ~sigma:(sigma c) rng)));
    compile_seconds = (fun _ -> 0.05);
    prepare = ignore;
  }

let tiny_settings =
  {
    Learner.scaled_settings with
    n_init = 4;
    n_obs_init = 10;
    n_candidates = 20;
    n_max = 80;
    eval_every = 5;
    ref_size = 50;
    model = Altune_core.Surrogate.dynatree ~particles:40 ();
  }

let make_dataset ?(seed = 3) problem =
  Dataset.generate problem ~rng:(Rng.create ~seed) ~n_configs:300
    ~test_fraction:0.25 ~n_obs:10

let curve_eq (a : Learner.eval_point list) (b : Learner.eval_point list) =
  List.length a = List.length b
  && List.for_all2
       (fun (p : Learner.eval_point) (q : Learner.eval_point) ->
         p.iteration = q.iteration && p.examples = q.examples
         && p.observations = q.observations
         && Float.equal p.cost_seconds q.cost_seconds
         && Float.equal p.rmse q.rmse)
       a b

(* --- Spec parsing ------------------------------------------------------ *)

let test_spec_roundtrip () =
  let d = Fault.default in
  (match Fault.of_string (Fault.to_string d) with
  | Ok d' -> Alcotest.(check bool) "default round-trips" true (d = d')
  | Error e -> Alcotest.fail e);
  match Fault.of_string "crash=0.5,timeout=0.25,max_retries=2,backoff=0.5" with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check (float 0.0)) "crash" 0.5 s.crash;
      Alcotest.(check (float 0.0)) "timeout" 0.25 s.timeout;
      Alcotest.(check int) "max_retries" 2 s.max_retries;
      Alcotest.(check (float 0.0)) "backoff" 0.5 s.backoff;
      Alcotest.(check (float 0.0))
        "omitted keys keep defaults" Fault.default.timeout_lost s.timeout_lost;
      Alcotest.(check bool) "canonical string round-trips" true
        (Fault.of_string (Fault.to_string s) = Ok s)

let test_spec_rejects () =
  let bad str =
    match Fault.of_string str with
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should be rejected" str)
    | Error _ -> ()
  in
  bad "crash=1.5";
  bad "crash=-0.1";
  bad "bogus=1";
  bad "crash=0.6,timeout=0.6" (* probabilities must sum to at most 1 *);
  bad "max_retries=-1";
  bad "crash"

(* --- Draws and backoff -------------------------------------------------- *)

let test_draw_deterministic () =
  let spec =
    match Fault.of_string "crash=0.2,timeout=0.2,corrupt=0.2" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let a = Fault.create spec ~seed:7 and b = Fault.create spec ~seed:7 in
  let keys = [ "k1"; "k2"; "k3" ] in
  List.iter
    (fun key ->
      for attempt = 0 to 19 do
        Alcotest.(check bool)
          "same seed, same verdict" true
          (Fault.draw a ~key ~attempt = Fault.draw b ~key ~attempt)
      done)
    keys;
  (* A different seed must not reproduce the same verdict sequence. *)
  let c = Fault.create spec ~seed:8 in
  let differs =
    List.exists
      (fun key ->
        List.exists
          (fun attempt -> Fault.draw a ~key ~attempt <> Fault.draw c ~key ~attempt)
          (List.init 20 Fun.id))
      keys
  in
  Alcotest.(check bool) "seed matters" true differs

let test_draw_extremes () =
  let zero = Fault.create Fault.default ~seed:1 in
  for attempt = 0 to 9 do
    Alcotest.(check bool)
      "all-zero spec never faults" true
      (Fault.draw zero ~key:"k" ~attempt = Fault.Ok)
  done;
  let certain =
    Fault.create { Fault.default with crash = 1.0 } ~seed:1
  in
  for attempt = 0 to 9 do
    Alcotest.(check bool)
      "crash=1 always crashes" true
      (Fault.draw certain ~key:"k" ~attempt = Fault.Crash)
  done

let test_backoff () =
  let spec = { Fault.default with backoff = 2.0 } in
  Alcotest.(check (float 0.0)) "no failures, no backoff" 0.0
    (Fault.backoff_seconds spec ~failures:0);
  Alcotest.(check (float 0.0)) "first failure" 2.0
    (Fault.backoff_seconds spec ~failures:1);
  Alcotest.(check (float 0.0)) "doubles" 4.0
    (Fault.backoff_seconds spec ~failures:2);
  Alcotest.(check (float 0.0)) "doubles again" 8.0
    (Fault.backoff_seconds spec ~failures:3)

(* --- Cost accounting ---------------------------------------------------- *)

let test_cost_failures () =
  let c = Cost.create () in
  Cost.charge_run c 1.0;
  Cost.charge_failure c 2.5;
  Cost.charge_failure c 0.5;
  Alcotest.(check (float 1e-9)) "failure seconds" 3.0 (Cost.failure_seconds c);
  Alcotest.(check int) "failures counted apart from runs" 2 (Cost.failures c);
  Alcotest.(check int) "runs unaffected" 1 (Cost.runs c);
  Alcotest.(check (float 1e-9)) "total includes failures" 4.0
    (Cost.total_seconds c);
  Alcotest.check_raises "negative failure rejected"
    (Invalid_argument "Cost.charge_failure: negative duration") (fun () ->
      Cost.charge_failure c (-1.0))

let test_cost_snapshot_roundtrip () =
  let c = Cost.create () in
  Cost.charge_run c 1.5;
  Cost.charge_compile c ~key:"a" 0.5;
  Cost.charge_failure c 2.0;
  let c' = Cost.of_snapshot (Cost.snapshot c) in
  Alcotest.(check (float 0.0)) "total" (Cost.total_seconds c)
    (Cost.total_seconds c');
  Alcotest.(check int) "runs" (Cost.runs c) (Cost.runs c');
  Alcotest.(check int) "failures" (Cost.failures c) (Cost.failures c');
  (* Compile dedup survives: recharging a snapshotted key is free. *)
  Cost.charge_compile c' ~key:"a" 0.5;
  Alcotest.(check (float 1e-9)) "key still deduped" 0.5
    (Cost.compile_seconds c')

(* --- Learner under faults ----------------------------------------------- *)

let fault_spec_mid =
  match Fault.of_string "crash=0.1,timeout=0.05,corrupt=0.05,backoff=0.5" with
  | Ok s -> s
  | Error e -> failwith e

let test_learner_faulty_deterministic () =
  let problem = synthetic () in
  let d = make_dataset problem in
  let go () =
    Learner.run
      ~fault:(Fault.create fault_spec_mid ~seed:99)
      problem d tiny_settings ~rng:(Rng.create ~seed:5)
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "same curve" true (curve_eq a.curve b.curve);
  Alcotest.(check (float 0.0)) "same cost" a.total_cost b.total_cost;
  Alcotest.(check int) "same runs" a.total_runs b.total_runs

let test_learner_faults_charged () =
  let problem = synthetic () in
  let d = make_dataset problem in
  let clean =
    Learner.run problem d tiny_settings ~rng:(Rng.create ~seed:5)
  in
  let (faulty, lines) =
    Events.with_memory (fun sink ->
        Learner.run
          ~fault:(Fault.create fault_spec_mid ~seed:99)
          ~events:(Events.stream sink "faulty")
          problem d tiny_settings ~rng:(Rng.create ~seed:5))
  in
  let fault_lines =
    List.filter
      (fun l ->
        match Events.of_lines [ l ] with
        | Ok f ->
            List.exists
              (fun (e : Events.t) ->
                match e.kind with Events.Fault _ -> true | _ -> false)
              f.events
        | Error _ -> false)
      lines
  in
  Alcotest.(check bool) "faults actually injected" true (fault_lines <> []);
  Alcotest.(check bool) "lost seconds charged" true
    (faulty.total_cost > 0.0 && faulty.total_cost <> clean.total_cost)

let test_all_seeds_dead () =
  let problem = synthetic () in
  let d = make_dataset problem in
  let certain = { fault_spec_mid with crash = 1.0; timeout = 0.0; corrupt = 0.0 } in
  match
    Learner.run
      ~fault:(Fault.create certain ~seed:1)
      problem d tiny_settings ~rng:(Rng.create ~seed:5)
  with
  | _ -> Alcotest.fail "expected failure when every seed config dies"
  | exception Failure msg ->
      Alcotest.(check bool) "descriptive message" true
        (String.length msg > 0
        && String.sub msg 0 11 = "Learner.run")

(* --- Checkpoint serialization ------------------------------------------- *)

(* The state at the first 10-iteration pause at or past [halt_at]. *)
let capture_mid_state problem d ?fault ~halt_at () =
  let l =
    Learner.start ?fault problem d tiny_settings ~rng:(Rng.create ~seed:5)
  in
  let rec go () =
    match Learner.step l ~iterations:10 with
    | Some _ -> Alcotest.fail "run finished before the halt point"
    | None ->
        let st = Learner.state l in
        if st.Learner.st_iteration >= halt_at then st else go ()
  in
  go ()

let test_checkpoint_roundtrip () =
  let module Json = Altune_obs.Json in
  let problem = synthetic () in
  let d = make_dataset problem in
  let st = capture_mid_state problem d ~halt_at:20 () in
  let meta =
    {
      Checkpoint.bench = "synthetic";
      scale = "smoke";
      seed = 5;
      fault = Some (Fault.to_string fault_spec_mid);
      n_max = Some 60;
      budget = Some 1234.5;
    }
  in
  let fields =
    match Checkpoint.to_json ~meta st with
    | Json.Obj fields -> fields
    | _ -> Alcotest.fail "a checkpoint is a JSON object"
  in
  (* Files written before the cadence field was retired still load. *)
  let with_every = Json.Obj (("every", Json.Int 10) :: fields) in
  (* A version-1 file also stored the dataset, the reference set and the
     fault seed, and had no overrides. *)
  let v1 =
    let dataset =
      Json.Obj
        [
          ("train", Json.List [ Json.List [ Json.Int 1; Json.Int 2 ] ]);
          ("test", Json.List []);
          ("test_means", Json.List []);
        ]
    in
    let refs = Json.List [ Json.List [ Json.String "3fe0000000000000" ] ] in
    Json.Obj
      (("dataset", dataset)
      :: List.filter_map
           (function
             | "version", _ -> Some ("version", Json.Int 1)
             | ("n_max" | "budget"), _ -> None
             | "fault", Json.Obj f ->
                 Some ("fault", Json.Obj (f @ [ ("seed", Json.Int 99) ]))
             | "state", Json.Obj s -> Some ("state", Json.Obj (("refs", refs) :: s))
             | field -> Some field)
           fields)
  in
  List.iter
    (fun (what, j, meta) ->
      match Checkpoint.of_json j with
      | Error e -> Alcotest.fail e
      | Ok (meta', st') ->
          Alcotest.(check bool) (what ^ ": meta round-trips") true
            (meta = meta');
          Alcotest.(check bool) (what ^ ": state round-trips exactly") true
            (st = st'))
    [
      ("v2", Json.Obj fields, meta);
      ("every", with_every, meta);
      ("v1", v1, { meta with n_max = None; budget = None });
    ];
  (* What the run recomputes from its spec is not written. *)
  let j = Json.Obj fields in
  Alcotest.(check (option int)) "version 2" (Some 2)
    (Option.bind (Json.member "version" j) Json.to_int_opt);
  Alcotest.(check bool) "no dataset" true (Json.member "dataset" j = None);
  Alcotest.(check bool) "no reference set" true
    (Option.bind (Json.member "state" j) (Json.member "refs") = None);
  Alcotest.(check bool) "no fault seed" true
    (Option.bind (Json.member "fault" j) (Json.member "seed") = None)

let stock_meta =
  {
    Checkpoint.bench = "synthetic";
    scale = "smoke";
    seed = 5;
    fault = None;
    n_max = None;
    budget = None;
  }

let test_checkpoint_save_load () =
  let problem = synthetic () in
  let d = make_dataset problem in
  let st = capture_mid_state problem d ~halt_at:20 () in
  let meta = stock_meta in
  let path = Filename.temp_file "altune-ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Result.iter_error Alcotest.fail (Checkpoint.save ~path ~meta st);
      match Checkpoint.load path with
      | Error e -> Alcotest.fail e
      | Ok (meta', st') ->
          Alcotest.(check bool) "meta" true (meta = meta');
          Alcotest.(check bool) "state" true (st = st'));
  (* A save that cannot complete is an error and leaves no temporary
     file: here the rename onto a directory fails. *)
  let dir = Filename.temp_dir "altune-ckpt" "" in
  Alcotest.(check bool) "refused" true
    (Result.is_error (Checkpoint.save ~path:dir ~meta st));
  Alcotest.(check bool) "no temporary file" false
    (Sys.file_exists (dir ^ ".tmp"));
  Unix.rmdir dir

(* --- Resume ------------------------------------------------------------- *)

let check_resume_matches ?fault () =
  let problem = synthetic () in
  let d = make_dataset problem in
  let full =
    Learner.run ?fault problem d tiny_settings ~rng:(Rng.create ~seed:5)
  in
  let st = capture_mid_state problem d ?fault ~halt_at:20 () in
  Alcotest.(check bool) "halted mid-run" true
    (st.Learner.st_iteration < tiny_settings.Learner.n_max);
  let resumed =
    Learner.run ?fault ~resume:st problem d tiny_settings
      ~rng:(Rng.create ~seed:5)
  in
  Alcotest.(check bool) "identical curve" true
    (curve_eq full.curve resumed.curve);
  Alcotest.(check (float 0.0)) "identical cost" full.total_cost
    resumed.total_cost;
  Alcotest.(check int) "identical runs" full.total_runs resumed.total_runs;
  Alcotest.(check int) "identical examples" full.distinct_examples
    resumed.distinct_examples;
  Alcotest.(check (float 0.0)) "identical rmse" full.final_rmse
    resumed.final_rmse;
  (* The rebuilt surrogate must be the same model, not merely a similar
     one: spot-check predictions across the test pool. *)
  Array.iter
    (fun c ->
      Alcotest.(check (float 0.0))
        "identical prediction" (full.predict c) (resumed.predict c))
    d.test_configs

let test_resume_matches_uninterrupted () = check_resume_matches ()

let test_resume_matches_under_faults () =
  check_resume_matches ~fault:(Fault.create fault_spec_mid ~seed:99) ()

(* A checkpoint taken through serialization (not just in memory) must
   resume identically too: this is the CLI's actual code path. *)
let test_resume_after_serialization () =
  let problem = synthetic () in
  let d = make_dataset problem in
  let full =
    Learner.run problem d tiny_settings ~rng:(Rng.create ~seed:5)
  in
  let st = capture_mid_state problem d ~halt_at:20 () in
  match Checkpoint.of_json (Checkpoint.to_json ~meta:stock_meta st) with
  | Error e -> Alcotest.fail e
  | Ok (_, st') ->
      let resumed =
        Learner.run ~resume:st' problem d tiny_settings
          ~rng:(Rng.create ~seed:5)
      in
      Alcotest.(check bool) "curve survives serialization" true
        (curve_eq full.curve resumed.curve);
      Alcotest.(check (float 0.0)) "cost survives serialization"
        full.total_cost resumed.total_cost

(* --- Schedule independence ---------------------------------------------- *)

let test_fault_events_identical_across_jobs () =
  (* The acceptance criterion: with a non-trivial fault spec, the full
     learner event stream (faults included) is byte-identical at jobs=1
     and jobs=4. *)
  let spec =
    match Fault.of_string "crash=0.05,timeout=0.02,corrupt=0.01" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let run jobs =
    Runs.set_jobs jobs;
    Runs.clear_cache ();
    Events.with_memory (fun events ->
        Runs.curves_for ~fault:spec ~events (Spapt.create "lu") Scale.smoke
          ~seed:3)
  in
  Fun.protect
    ~finally:(fun () -> Runs.set_jobs 1)
    (fun () ->
      let seq, seq_lines = run 1 in
      let par, par_lines = run 4 in
      Alcotest.(check bool) "adaptive curve identical" true
        (curve_eq seq.Runs.variable_observations par.Runs.variable_observations);
      Alcotest.(check int) "same event count" (List.length seq_lines)
        (List.length par_lines);
      Alcotest.(check bool) "event stream byte-identical" true
        (seq_lines = par_lines);
      Alcotest.(check bool) "stream mentions faults" true
        (List.exists
           (fun l ->
             match Events.of_lines [ l ] with
             | Ok f ->
                 List.exists
                   (fun (e : Events.t) ->
                     match e.kind with Events.Fault _ -> true | _ -> false)
                   f.events
             | Error _ -> false)
           seq_lines))

let () =
  Alcotest.run "fault"
    [
      ( "spec",
        [
          Alcotest.test_case "round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "rejects bad specs" `Quick test_spec_rejects;
        ] );
      ( "draws",
        [
          Alcotest.test_case "deterministic" `Quick test_draw_deterministic;
          Alcotest.test_case "extremes" `Quick test_draw_extremes;
          Alcotest.test_case "backoff" `Quick test_backoff;
        ] );
      ( "cost",
        [
          Alcotest.test_case "failure accounting" `Quick test_cost_failures;
          Alcotest.test_case "snapshot round-trip" `Quick
            test_cost_snapshot_roundtrip;
        ] );
      ( "learner",
        [
          Alcotest.test_case "faulty run deterministic" `Quick
            test_learner_faulty_deterministic;
          Alcotest.test_case "faults charged and reported" `Quick
            test_learner_faults_charged;
          Alcotest.test_case "all seeds dead fails descriptively" `Quick
            test_all_seeds_dead;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "json round-trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "save/load round-trip" `Quick
            test_checkpoint_save_load;
          Alcotest.test_case "resume matches uninterrupted" `Quick
            test_resume_matches_uninterrupted;
          Alcotest.test_case "resume matches under faults" `Quick
            test_resume_matches_under_faults;
          Alcotest.test_case "resume after serialization" `Quick
            test_resume_after_serialization;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fault events identical at jobs=1 and jobs=4"
            `Slow test_fault_events_identical_across_jobs;
        ] );
    ]
