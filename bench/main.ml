(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section at the `quick` scale, then runs Bechamel
   micro-benchmarks over the hot paths of the implementation.

   Run with: dune exec bench/main.exe
   Pass --scale standard (or paper) for larger experiment scales,
   --jobs N to fan experiments out over N domains (results are
   bit-identical at any job count), --benchmarks a,b to restrict the
   benchmark set, --fault-spec crash=0.05,timeout=0.02 to inject
   deterministic simulated faults into every learner run,
   --progress for live per-task reporting, --trace FILE
   to record a JSONL span trace (summarize with `altune trace-summary`),
   --events FILE to record the learner decision stream (render with
   `altune report`), --metrics to dump the metrics registry to stderr
   at exit, or a subset of section names (table1 table2 fig1 fig2 fig5
   fig6 ablation serve surrogate micro) to run only those.  The
   surrogate section (alias --surrogate) benchmarks the dynamic-tree hot
   path — observe throughput, incremental vs from-scratch ALC.  The
   serve section drives --serve-load N (default 200) synthetic tuning
   sessions with overlapping config demand through the in-process
   tuning server, recording sessions/sec and the cross-session memo hit
   rate.

   Every record lands in one file, BENCH_harness.json, in one format:
   built by Bench_diff.record and appended by Bench_diff.append, stamped
   with the run manifest (host, cores, git rev, ...) so the performance
   trajectory stays interpretable across machines and commits.  A
   section is recorded by its wall time unless it measures its own
   records (serve, surrogate); under --fault-spec the wall-time records
   are named "<section>+fault".  `dune build @bench` gates them against
   bench/baseline.json. *)

module Drivers = Altune_experiments.Drivers
module Scale = Altune_experiments.Scale
module Runs = Altune_experiments.Runs
module Pool = Altune_exec.Pool
module Trace = Altune_obs.Trace
module Metrics = Altune_obs.Metrics
module Manifest = Altune_obs.Manifest
module Events = Altune_obs.Events
module Bench_diff = Altune_obs.Bench_diff
module Json = Altune_obs.Json

let harness_path = "BENCH_harness.json"

(* Run one section and append its records to BENCH_harness.json.  [f]
   returns the section's report and the records it measured itself; a
   section that measured none is recorded by its wall time.  A
   fault-injected run records that wall time under its own key, so a
   clean baseline is never compared with it. *)
let section ~manifest ~faulty id name f =
  Printf.printf "==============================================================\n";
  Printf.printf "%s\n" name;
  Printf.printf "==============================================================\n%!";
  let t0 = Unix.gettimeofday () in
  let report, records = Trace.with_span ~name:("bench." ^ id) f in
  print_string report;
  let dt = Unix.gettimeofday () -. t0 in
  let records =
    if records <> [] then records
    else
      let section = if faulty then id ^ "+fault" else id in
      [ Bench_diff.record ~manifest ~section ~seconds:dt () ]
  in
  (match Bench_diff.append harness_path records with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "bench: %s\n" e;
      exit 1);
  Printf.printf "\n[%s regenerated in %.1fs wall time]\n\n%!" name dt

(* --- Tuning-service load generator --------------------------------- *)

(* Drive [sessions] synthetic tuning sessions through the in-process
   server API: smoke-scale adaptive runs capped at 16 iterations, spread
   over all 11 kernels x a few seeds so many sessions demand the same
   (kernel, config) evaluations — the overlap the server's shared
   per-kernel stores exist to exploit.  All sessions are opened up front (most of
   them queue under admission control), then tick requests step every
   live session in parallel until the whole fleet has completed; like a
   client, the load closes each session once a tick reports it done, so
   the server's memory reflects the sessions in flight rather than every
   session ever opened.  The returned summary is deterministic
   (simulated quantities only); the wall-derived sessions/sec rate goes
   into the section's record. *)
let run_serve_load ~manifest ~jobs ~sessions ?snapshots () =
  let module Server = Altune_serve.Server in
  let module P = Altune_serve.Protocol in
  let benches = Array.of_list Altune_spapt.Kernels.names in
  let seeds = [| 42; 43; 44 |] in
  let n_benches = Array.length benches in
  let n_seeds = Array.length seeds in
  let max_live = 16 in
  let tick_iterations = 6 in
  let n_max = 16 in
  let server =
    Server.create
      {
        Server.jobs;
        max_live;
        max_queue = sessions;
        budget_cap = None;
        checkpoint_dir = None;
        snapshot_path = snapshots;
        snapshot_every = 10.0;
        flight = None;
        ledger_path = None;
      }
  in
  (* Requests go through the line codecs, exactly like a socket client:
     that is the path the wire-latency sketch times. *)
  let request req =
    let reply_line = Server.handle_line server (P.request_to_line req) in
    match P.response_of_line reply_line with
    | Ok { P.r_result = Ok reply; _ } -> reply
    | Ok { P.r_result = Error e; _ } -> failwith ("serve load: " ^ e)
    | Error e -> failwith ("serve load: bad response line: " ^ e)
  in
  (* With --snapshots, snapshot on a tick counter (not wall time) so the
     record count is load-determined, and scrape the live-introspection
     verbs once mid-load, the way an external monitor would. *)
  let snapshot_every_ticks = 8 in
  let scrape_at_tick = snapshot_every_ticks in
  let scrape_base =
    Option.map (fun p -> Filename.remove_extension p) snapshots
  in
  let write_file path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  let on_tick ticks =
    if snapshots <> None && ticks mod snapshot_every_ticks = 0 then
      Server.snapshot server;
    match scrape_base with
    | Some base when ticks = scrape_at_tick ->
        (match request P.Stats_full with
        | P.R_stats_full data ->
            write_file (base ^ "-statsfull.json")
              (Json.to_string data ^ "\n")
        | _ -> failwith "serve load: unexpected stats_full reply");
        (match request P.Prom with
        | P.R_prom text -> write_file (base ^ "-prom.txt") text
        | _ -> failwith "serve load: unexpected prom reply")
    | _ -> ()
  in
  let t0 = Unix.gettimeofday () in
  for i = 0 to sessions - 1 do
    ignore
      (request
         (P.Open
            {
              P.o_session = Printf.sprintf "s%04d" i;
              o_bench = benches.(i mod n_benches);
              o_scale = "smoke";
              o_seed = seeds.(i / n_benches mod n_seeds);
              o_fault = None;
              o_budget = None;
              o_n_max = Some n_max;
              o_checkpoint = None;
            }))
  done;
  let ticks = ref 0 in
  let rec drive () =
    let stats =
      match request P.Stats with
      | P.R_stats s -> s
      | _ -> failwith "serve load: unexpected stats reply"
    in
    if stats.P.s_closed >= sessions then stats
    else if !ticks > (4 * sessions) + 16 then
      failwith "serve load: fleet did not converge"
    else begin
      incr ticks;
      (match request (P.Tick { iterations = tick_iterations }) with
      | P.R_tick views ->
          List.iter
            (fun (v : P.session_view) ->
              if v.P.v_state = P.Done then
                ignore (request (P.Close { session = v.P.v_session })))
            views
      | _ -> failwith "serve load: unexpected tick reply");
      on_tick !ticks;
      drive ()
    end
  in
  let stats = drive () in
  let seconds = Unix.gettimeofday () -. t0 in
  ignore (request P.Shutdown);
  let memo = stats.P.s_memo in
  (* The whole point of multi-tenancy is shared evaluations: a load with
     overlapping workloads but zero cross-session hits means the shared
     memo is broken, so fail loudly rather than record it. *)
  if memo.P.m_cross_hits = 0 then
    failwith "serve load: no cross-session memo sharing observed";
  let pct part whole =
    if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole
  in
  let rate =
    if seconds > 0.0 then float_of_int sessions /. seconds else 0.0
  in
  let record =
    Bench_diff.record ~manifest ~section:"serve" ~seconds
      ~rate:(rate, "sess/s")
      ~extras:
        [
          ("sessions", Json.Int sessions);
          ("memo_lookups", Json.Int memo.P.m_lookups);
          ("memo_entries", Json.Int memo.P.m_entries);
          ("memo_hits", Json.Int memo.P.m_hits);
          ("memo_shared_keys", Json.Int memo.P.m_shared_keys);
          ("memo_cross_hits", Json.Int memo.P.m_cross_hits);
          ( "memo_cross_hit_rate",
            Json.Float
              (if memo.P.m_lookups = 0 then 0.0
               else
                 float_of_int memo.P.m_cross_hits
                 /. float_of_int memo.P.m_lookups) );
        ]
      ()
  in
  ( Printf.sprintf
    "serve load: %d sessions over %d kernels x %d seeds (%d distinct \
     workloads)\n\
     admission : %d live slots, FIFO queue, %d ticks of %d iterations\n\
     completed : %d closed, %d live, %d queued (all sessions ran to their \
     %d-iteration cap)\n\
     memo      : %d evaluation lookups, %d distinct configs computed, %d \
     hits (%.1f%%)\n\
     sharing   : %d keys touched by 2+ sessions; %d cross-session hits \
     (%.1f%% of lookups)\n"
    sessions n_benches n_seeds
    (min sessions (n_benches * n_seeds))
    max_live !ticks tick_iterations stats.P.s_closed stats.P.s_live
    stats.P.s_queued n_max memo.P.m_lookups memo.P.m_entries memo.P.m_hits
    (pct memo.P.m_hits memo.P.m_lookups)
    memo.P.m_shared_keys memo.P.m_cross_hits
    (pct memo.P.m_cross_hits memo.P.m_lookups),
    [ record ] )

(* --- Surrogate hot-path microbenchmark ------------------------------ *)

(* Measure the dynamic-tree inner loop at a learner-shaped workload
   (ensemble observe throughput, fast incremental ALC, and its
   from-scratch reference [Dynatree.alc_scores_full]) as four records,
   which @bench gates against the committed bench/baseline.json.
   Allocations are reported as minor words per operation (Gc.minor_words
   delta), which is exact and deterministic, unlike the wall-clock
   rates. *)
let run_surrogate ~manifest =
  let module Rng = Altune_prng.Rng in
  let module Dt = Altune_dynatree.Dynatree in
  let dim = 8 and n_particles = 300 in
  let n_train = 120 and n_timed_obs = 120 in
  let n_refs = 256 and n_cands = 128 in
  let alc_fast_iters = 30 and alc_slow_iters = 6 in
  let params = { Dt.default_params with n_particles } in
  let model = Dt.create ~params ~rng:(Rng.create ~seed:11) dim in
  Dt.set_pool model (Some (Runs.pool ()));
  let data_rng = Rng.create ~seed:13 in
  let point () = Array.init dim (fun _ -> Rng.uniform data_rng) in
  let response x =
    (10.0 *. x.(0)) +. (5.0 *. x.(1) *. x.(1)) +. Rng.normal data_rng
  in
  for _ = 1 to n_train do
    let x = point () in
    Dt.observe model x (response x)
  done;
  let refs = Array.init n_refs (fun _ -> point ()) in
  let cands = Array.init n_cands (fun _ -> point ()) in
  (* Register the reference set (fills the per-leaf member caches) before
     timing, as a learner run would on its first scoring pass. *)
  ignore (Dt.alc_scores model ~candidates:cands ~refs);
  let timed f =
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0, Gc.minor_words () -. w0)
  in
  (* Observe throughput: particle updates per second, with the incremental
     ALC cache maintenance active (refs are registered). *)
  let obs_s, obs_words =
    timed (fun () ->
        for _ = 1 to n_timed_obs do
          let x = point () in
          Dt.observe model x (response x)
        done)
  in
  let obs_rate = float_of_int (n_particles * n_timed_obs) /. obs_s in
  (* ALC scoring throughput, fast (incremental caches) and slow (the
     from-scratch reference) paths over the identical model state. *)
  let alc_work iters = float_of_int (iters * n_cands * n_particles) in
  let fast_s, fast_words =
    timed (fun () ->
        for _ = 1 to alc_fast_iters do
          ignore (Dt.alc_scores model ~candidates:cands ~refs)
        done)
  in
  let fast_rate = alc_work alc_fast_iters /. fast_s in
  let slow_s, slow_words =
    timed (fun () ->
        for _ = 1 to alc_slow_iters do
          ignore (Dt.alc_scores_full model ~candidates:cands ~refs)
        done)
  in
  let slow_rate = alc_work alc_slow_iters /. slow_s in
  (* Full learner iteration: ingest one observation, then score the whole
     candidate pool — the unit of work an active-learning tuning step
     performs (observe the new measurement, pick the next configuration
     by ALC).  This is the end-to-end rate a tuning session feels, and
     the headline number for the flat-array + incremental-ALC rework. *)
  let iter_n = 40 in
  let iter_s, iter_words =
    timed (fun () ->
        for _ = 1 to iter_n do
          let x = point () in
          Dt.observe model x (response x);
          ignore (Dt.alc_scores model ~candidates:cands ~refs)
        done)
  in
  let iter_rate = float_of_int iter_n /. iter_s in
  let per op_words ops = op_words /. float_of_int ops in
  let record ~section ~seconds ~rate ~words_per_op =
    Bench_diff.record ~manifest ~section ~seconds ~rate
      ~extras:[ ("minor_words_per_op", Json.Float words_per_op) ]
      ()
  in
  ( Printf.sprintf
    "surrogate hot path: %d particles, dim %d, %d refs, %d candidates\n\
     observe   : %d ensemble updates in %.3fs — %.0f particles/s (%.0f \
     minor words/observe)\n\
     alc fast  : %d calls in %.3fs — %.3e scores/s (%.0f minor words/call)\n\
     alc full  : %d calls in %.3fs — %.3e scores/s (%.0f minor words/call)\n\
     fast/full : %.1fx on identical model state\n\
     iteration : %d observe+score steps in %.3fs — %.1f iterations/s \
     (%.0f minor words/iter)\n"
    n_particles dim n_refs n_cands n_timed_obs obs_s obs_rate
    (per obs_words n_timed_obs)
    alc_fast_iters fast_s fast_rate
    (per fast_words alc_fast_iters)
    alc_slow_iters slow_s slow_rate
    (per slow_words alc_slow_iters)
    (fast_rate /. slow_rate)
    iter_n iter_s iter_rate (per iter_words iter_n),
    [
      record ~section:"surrogate-observe" ~seconds:obs_s
        ~rate:(obs_rate, "particles/s")
        ~words_per_op:(per obs_words n_timed_obs);
      record ~section:"surrogate-alc" ~seconds:fast_s
        ~rate:(fast_rate, "scores/s")
        ~words_per_op:(per fast_words alc_fast_iters);
      record ~section:"surrogate-alc-full" ~seconds:slow_s
        ~rate:(slow_rate, "scores/s")
        ~words_per_op:(per slow_words alc_slow_iters);
      record ~section:"surrogate-iteration" ~seconds:iter_s
        ~rate:(iter_rate, "iterations/s")
        ~words_per_op:(per iter_words iter_n);
    ] )

(* --- Bechamel micro-benchmarks of the implementation's hot paths --- *)

let micro_tests () =
  let open Bechamel in
  let module Rng = Altune_prng.Rng in
  let module Dt = Altune_dynatree.Dynatree in
  let module Spapt = Altune_spapt.Spapt in
  let module Parser = Altune_kernellang.Parser in
  let module Analysis = Altune_kernellang.Analysis in
  let module Machine = Altune_machine.Machine in
  let module Transform = Altune_kernellang.Transform in
  let rng = Rng.create ~seed:1 in
  let rng_test =
    Test.make ~name:"rng.normal" (Staged.stage (fun () -> Rng.normal rng))
  in
  let mm_src = Altune_spapt.Kernels.source "mm" in
  let parse_test =
    Test.make ~name:"parser.mm"
      (Staged.stage (fun () -> ignore (Parser.parse_kernel mm_src)))
  in
  let mm_kernel = Parser.parse_kernel mm_src in
  let transform_test =
    Test.make ~name:"transform.tile+unroll"
      (Staged.stage (fun () ->
           ignore
             (Result.bind
                (Transform.tile_nest [ ("i", 16); ("j", 16); ("k", 16) ]
                   mm_kernel)
                (Transform.unroll ~index:"k" ~factor:4))))
  in
  (* The two passes behind an evaluation-cache miss, on the costliest
     miss there is: hessian's all-maximum configuration 5,5,7,29 (32x32
     tiles, jam 8, unroll 30). *)
  let hessian = Spapt.create "hessian" in
  let max_config =
    Array.of_list
      (List.map (fun k -> Spapt.knob_cardinality k - 1) (Spapt.knobs hessian))
  in
  let max_kernel = Spapt.transformed hessian max_config in
  let analysis_test =
    Test.make ~name:"analysis.analyze(hessian max)"
      (Staged.stage (fun () -> ignore (Analysis.analyze max_kernel)))
  in
  let analyzed = Analysis.analyze max_kernel in
  let machine_test =
    Test.make ~name:"machine.estimate(hessian max)"
      (Staged.stage (fun () ->
           ignore (Machine.estimate Machine.default analyzed)))
  in
  let bench = Spapt.create "mvt" in
  let eval_rng = Rng.create ~seed:3 in
  let spapt_test =
    Test.make ~name:"spapt.measure(memoized)"
      (Staged.stage (fun () ->
           let c = Spapt.random_config bench eval_rng in
           ignore (Spapt.measure bench ~rng:eval_rng ~run_index:1 c)))
  in
  (* Dynamic tree: trained once, then benchmark observe / predict / alc. *)
  let params = { Dt.default_params with n_particles = 60 } in
  let model = Dt.create ~params ~rng:(Rng.create ~seed:5) 5 in
  let obs_rng = Rng.create ~seed:7 in
  for _ = 1 to 200 do
    let x = Array.init 5 (fun _ -> Rng.uniform obs_rng) in
    Dt.observe model x (Rng.normal obs_rng)
  done;
  let observe_test =
    Test.make ~name:"dynatree.observe"
      (Staged.stage (fun () ->
           let x = Array.init 5 (fun _ -> Rng.uniform obs_rng) in
           Dt.observe model x (Rng.normal obs_rng)))
  in
  let q = Array.init 5 (fun _ -> 0.5) in
  let predict_test =
    Test.make ~name:"dynatree.predict"
      (Staged.stage (fun () -> ignore (Dt.predict model q)))
  in
  let refs =
    Array.init 100 (fun _ -> Array.init 5 (fun _ -> Rng.uniform obs_rng))
  in
  let cands =
    Array.init 50 (fun _ -> Array.init 5 (fun _ -> Rng.uniform obs_rng))
  in
  let alc_test =
    Test.make ~name:"dynatree.alc(50 cands,100 refs)"
      (Staged.stage (fun () ->
           ignore (Dt.alc_scores model ~candidates:cands ~refs)))
  in
  (* The paper's Section 3.2 argument made measurable: a dynamic-tree
     update is incremental while a GP update refactorizes the kernel
     matrix (O(n^3)); compare both at 200 accumulated observations. *)
  let module Gp = Altune_gp.Gp in
  let gp = Gp.create ~dim:5 () in
  let gp_rng = Rng.create ~seed:9 in
  for _ = 1 to 200 do
    let x = Array.init 5 (fun _ -> Rng.uniform gp_rng) in
    Gp.observe gp x (Rng.normal gp_rng)
  done;
  ignore (Gp.predict gp (Array.make 5 0.5));
  let gp_update_test =
    Test.make ~name:"gp.observe+refit(n=200)"
      (Staged.stage (fun () ->
           let x = Array.init 5 (fun _ -> Rng.uniform gp_rng) in
           Gp.observe gp x (Rng.normal gp_rng);
           ignore (Gp.predict gp x)))
  in
  let gp_predict_test =
    Test.make ~name:"gp.predict(n=200)"
      (Staged.stage (fun () -> ignore (Gp.predict gp (Array.make 5 0.3))))
  in
  [
    rng_test;
    parse_test;
    transform_test;
    analysis_test;
    machine_test;
    spapt_test;
    observe_test;
    predict_test;
    alc_test;
    gp_update_test;
    gp_predict_test;
  ]

let run_micro () =
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 500) ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let tests = micro_tests () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-34s %16s\n%s\n" "micro-benchmark" "ns/run"
       (String.make 52 '-'));
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false
          ~predictors:[| Measure.run |]
      in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Buffer.add_string buf (Printf.sprintf "%-34s %16.1f\n" name est)
          | Some _ | None ->
              Buffer.add_string buf (Printf.sprintf "%-34s %16s\n" name "?"))
        results)
    tests;
  Buffer.contents buf

let () =
  let args = Array.to_list Sys.argv in
  let scale =
    let rec find = function
      | "--scale" :: label :: _ -> (
          match Scale.of_label label with
          | Some s -> s
          | None ->
              Printf.eprintf "unknown scale %s\n" label;
              exit 2)
      | _ :: rest -> find rest
      | [] -> Scale.quick
    in
    find args
  in
  let jobs =
    let rec find = function
      | ("--jobs" | "-j") :: n :: _ -> (
          match int_of_string_opt n with
          | Some j when j >= 1 -> j
          | Some _ | None ->
              Printf.eprintf "--jobs needs a positive integer, got %s\n" n;
              exit 2)
      | _ :: rest -> find rest
      | [] -> Pool.default_jobs ()
    in
    find args
  in
  let benchmarks =
    let rec find = function
      | "--benchmarks" :: names :: _ ->
          Some (String.split_on_char ',' names)
      | _ :: rest -> find rest
      | [] -> None
    in
    let known = Altune_spapt.Kernels.names in
    Option.iter
      (List.iter (fun n ->
           if not (List.mem n known) then begin
             Printf.eprintf "unknown benchmark %S; known: %s\n" n
               (String.concat ", " known);
             exit 2
           end))
      (find args);
    find args
  in
  let trace =
    let rec find = function
      | "--trace" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let events =
    let rec find = function
      | "--events" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let fault =
    let rec find = function
      | "--fault-spec" :: spec :: _ -> (
          match Altune_exec.Fault.of_string spec with
          | Ok sp -> Some sp
          | Error e ->
              Printf.eprintf "--fault-spec: %s\n" e;
              exit 2)
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let serve_load =
    let rec find = function
      | "--serve-load" :: n :: _ -> (
          match int_of_string_opt n with
          | Some s when s >= 1 -> s
          | Some _ | None ->
              Printf.eprintf "--serve-load needs a positive integer, got %s\n"
                n;
              exit 2)
      | _ :: rest -> find rest
      | [] -> 200
    in
    find args
  in
  let snapshots =
    let rec find = function
      | "--snapshots" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let metrics = List.mem "--metrics" args in
  let progress = List.mem "--progress" args in
  let on_event =
    if not progress then None
    else
      Some
        (function
        | Pool.Task_started { label; _ } ->
            Printf.eprintf "[pool] start  %s\n%!" label
        | Pool.Task_finished { label; wall_seconds; _ } ->
            Printf.eprintf "[pool] done   %s (%.1fs)\n%!" label wall_seconds)
  in
  Runs.set_jobs ?on_event jobs;
  let wanted name =
    let named =
      List.filter_map
        (fun a ->
          (* `--surrogate` is accepted as an alias for the section name,
             matching the @bench invocation. *)
          let a = if a = "--surrogate" then "surrogate" else a in
          if
            List.mem a
              [ "table1"; "table2"; "fig1"; "fig2"; "fig5"; "fig6";
                "ablation"; "serve"; "micro"; "surrogate" ]
          then Some a
          else None)
        (List.tl args)
    in
    named = [] || List.mem name named
  in
  let seed = 42 in
  let manifest = Manifest.capture ~scale:scale.Scale.label ~jobs ~seed () in
  Printf.printf
    "altune benchmark harness — reproducing every table and figure of\n\
     'Minimizing the Cost of Iterative Compilation with Active Learning'\n\
     (CGO 2017) at scale=%s, seed=%d, jobs=%d.  Costs are simulated\n\
     seconds; the shapes, not the absolute numbers, are the reproduction\n\
     target.\n\n%!"
    scale.Scale.label seed jobs;
  let section = section ~manifest ~faulty:(Option.is_some fault) in
  let run_all () =
    if wanted "fig1" then
      section "fig1" "Figure 1 (mm unroll plane: MAE and optimal samples)"
        (fun () -> (Drivers.fig1 ~scale ~seed (), []));
    if wanted "fig2" then
      section "fig2" "Figure 2 (adi runtime vs unroll factor)" (fun () ->
          (Drivers.fig2 ~scale ~seed (), []));
    if wanted "table2" then
      section "table2" "Table 2 (noise spread across each space)" (fun () ->
          (Drivers.table2 ?benchmarks ~scale ~seed (), []));
    if wanted "table1" then
      section "table1" "Table 1 (lowest common error, cost, speed-up)"
        (fun () -> (Drivers.table1 ?benchmarks ?fault ~scale ~seed (), []));
    if wanted "fig5" then
      section "fig5" "Figure 5 (profiling-cost reduction)" (fun () ->
          (Drivers.fig5 ?benchmarks ?fault ~scale ~seed (), []));
    if wanted "fig6" then
      section "fig6" "Figure 6 (error vs cost for three sampling plans)"
        (fun () -> (Drivers.fig6 ?benchmarks ?fault ~scale ~seed (), []));
    if wanted "ablation" then
      section "ablation" "Ablation (design choices of the adaptive learner)"
        (fun () -> (Drivers.ablation ?fault ~scale ~seed (), []));
    if wanted "serve" then
      section "serve"
        (Printf.sprintf
           "Serve (tuning-as-a-service load: %d multi-tenant sessions)"
           serve_load) (fun () ->
          run_serve_load ~manifest ~jobs ~sessions:serve_load ?snapshots ());
    if wanted "surrogate" then
      section "surrogate"
        "Surrogate hot path (observe + incremental vs full ALC)" (fun () ->
          run_surrogate ~manifest);
    if wanted "micro" then
      section "micro" "Micro-benchmarks (Bechamel)" (fun () ->
          (run_micro (), []))
  in
  let run_all () =
    match events with
    | None -> run_all ()
    | Some path ->
        Events.with_file path ~manifest:(Manifest.to_json manifest) run_all
  in
  (match trace with
  | None -> run_all ()
  | Some path ->
      Trace.with_file path ~manifest:(Manifest.to_json manifest) run_all);
  Printf.printf "[records appended to %s]\n%!" harness_path;
  if metrics then prerr_string (Metrics.render ())
