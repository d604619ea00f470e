(* Timing harness: the three sections whose records `dune build @bench`
   gates against bench/baseline.json, each at fixed parameters so its
   record keeps one matching key: table1 (Table 1 on hessian and lu at
   the smoke scale, seed 42, 2 domains, timed by its wall time),
   surrogate (the dynamic-tree hot path at 2 domains) and serve (200
   multi-tenant sessions through the in-process tuning server at 4
   domains).  The paper's tables and figures come from `altune all`.

   Run with: dune exec bench/main.exe -- [table1] [surrogate] [serve]
   [--snapshots FILE].  No section name runs all three; --snapshots
   writes the serve load's telemetry series.  Every record is appended
   by Bench_diff.append to BENCH_harness.json in the working directory,
   stamped with the run manifest (host, cores, git rev, ...). *)

module Drivers = Altune_experiments.Drivers
module Scale = Altune_experiments.Scale
module Runs = Altune_experiments.Runs
module Manifest = Altune_obs.Manifest
module Bench_diff = Altune_obs.Bench_diff
module Json = Altune_obs.Json

let harness_path = "BENCH_harness.json"
let scale = Scale.smoke
let seed = 42

(* --- Tuning-service load generator --------------------------------- *)

(* Drive [sessions] synthetic tuning sessions through the in-process
   server API: smoke-scale adaptive runs capped at 16 iterations, spread
   over all 11 kernels x a few seeds so many sessions demand the same
   (kernel, config) evaluations — the overlap the server's shared
   per-kernel stores exist to exploit.  All sessions are opened up front
   (most of them queue under admission control), then tick requests step
   every live session in parallel until the whole fleet has completed;
   like a client, the load closes each session once a tick reports it
   done, so the server's memory reflects the sessions in flight rather
   than every session ever opened.  The returned summary is deterministic
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
  let scrape_base = Option.map Filename.remove_extension snapshots in
  let write_file path contents =
    Out_channel.with_open_text path (fun oc -> output_string oc contents)
  in
  let on_tick ticks =
    if snapshots <> None && ticks mod snapshot_every_ticks = 0 then
      Server.snapshot server;
    match scrape_base with
    | Some base when ticks = snapshot_every_ticks ->
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
     by ALC).  This is the end-to-end rate a tuning session feels. *)
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

(* Run one section on a [jobs]-domain pool and append its records to
   BENCH_harness.json.  [f] returns the section's report and the records
   it measured itself; a section that measured none is recorded by its
   wall time. *)
let run_section ~jobs id f =
  Runs.set_jobs jobs;
  let manifest = Manifest.capture ~scale:scale.Scale.label ~jobs ~seed () in
  Printf.printf "=== %s (jobs=%d) ===\n%!" id jobs;
  let t0 = Unix.gettimeofday () in
  let report, records = f manifest in
  print_string report;
  let dt = Unix.gettimeofday () -. t0 in
  let records =
    if records <> [] then records
    else [ Bench_diff.record ~manifest ~section:id ~seconds:dt () ]
  in
  match Bench_diff.append harness_path records with
  | Ok () -> Printf.printf "[%s: %.1fs wall time]\n\n%!" id dt
  | Error e ->
      Printf.eprintf "bench: %s\n" e;
      exit 1

let () =
  let names = [ "table1"; "surrogate"; "serve" ] in
  let rec parse wanted snapshots = function
    | [] -> (wanted, snapshots)
    | "--snapshots" :: path :: rest -> parse wanted (Some path) rest
    | name :: rest when List.mem name names ->
        parse (name :: wanted) snapshots rest
    | arg :: _ ->
        Printf.eprintf "bench: unexpected argument %S; usage: main.exe \
           [%s]... [--snapshots FILE]\n"
          arg (String.concat "|" names);
        exit 2
  in
  let wanted, snapshots = parse [] None (List.tl (Array.to_list Sys.argv)) in
  let section id ~jobs f =
    if wanted = [] || List.mem id wanted then run_section ~jobs id f
  in
  section "table1" ~jobs:2 (fun _ ->
      (Drivers.table1 ~benchmarks:[ "hessian"; "lu" ] ~scale ~seed (), []));
  section "surrogate" ~jobs:2 (fun manifest -> run_surrogate ~manifest);
  section "serve" ~jobs:4 (fun manifest ->
      run_serve_load ~manifest ~jobs:4 ~sessions:200 ?snapshots ());
  Printf.printf "[records appended to %s]\n%!" harness_path
