(* The tuning service: wire-protocol codecs must round-trip (and turn
   malformed input into error replies rather than crashes), sessions
   must walk the queued -> live -> done -> closed state machine under
   the documented admission policy, the shared cross-session memo must
   account hits schedule-independently, and a fixed request script must
   produce a byte-identical response transcript at any jobs count. *)

module Protocol = Altune_serve.Protocol
module Server = Altune_serve.Server
module Json = Altune_obs.Json
module Metrics = Altune_obs.Metrics

let server ?(jobs = 1) ?(max_live = 8) ?(max_queue = 64) ?budget_cap
    ?checkpoint_dir ?snapshot_path ?flight ?ledger_path () =
  Server.create
    {
      Server.jobs;
      max_live;
      max_queue;
      budget_cap;
      checkpoint_dir;
      snapshot_path;
      snapshot_every = 10.0;
      flight;
      ledger_path;
    }

let open_params ?(scale = "smoke") ?(seed = 42) ?fault ?budget ?n_max
    ?checkpoint name bench =
  {
    Protocol.o_session = name;
    o_bench = bench;
    o_scale = scale;
    o_seed = seed;
    o_fault = fault;
    o_budget = budget;
    o_n_max = n_max;
    o_checkpoint = checkpoint;
  }

(* Short sessions: smoke scale has n_init = 4, so n_max = 8 finishes
   after four adaptive iterations — enough to exercise every phase
   without making the suite slow. *)
let open_req ?scale ?seed ?fault ?budget ?checkpoint ?(n_max = Some 8) name
    bench =
  Protocol.Open (open_params ?scale ?seed ?fault ?budget ?checkpoint ?n_max
     name bench)

let ok = function
  | Ok reply -> reply
  | Error e -> Alcotest.failf "request failed: %s" e

let err = function
  | Ok _ -> Alcotest.fail "request unexpectedly succeeded"
  | Error e -> e

let view = function
  | Protocol.R_session v -> v
  | _ -> Alcotest.fail "expected a session reply"

let state_label = function
  | Protocol.Queued -> "queued"
  | Protocol.Live -> "live"
  | Protocol.Done -> "done"
  | Protocol.Closed -> "closed"

let check_state what expected v =
  Alcotest.(check string) what (state_label expected)
    (state_label v.Protocol.v_state)

(* --- Codec round-trips ------------------------------------------------- *)

let sample_requests =
  [
    open_req "alpha" "hessian";
    Protocol.Open
      (open_params ~scale:"paper" ~seed:7 ~fault:"rate=0.1" ~budget:250.0
         ~n_max:12 ~checkpoint:"/tmp/alpha.ck.json" "beta" "lu");
    Protocol.Step { session = "alpha"; iterations = 3 };
    Protocol.Tick { iterations = 2 };
    Protocol.Status { session = "alpha" };
    Protocol.Checkpoint { session = "alpha"; path = Some "/tmp/a.json" };
    Protocol.Checkpoint { session = "alpha"; path = None };
    Protocol.Close { session = "beta" };
    Protocol.Stats;
    Protocol.Stats_full;
    Protocol.Prom;
    Protocol.Shutdown;
  ]

let test_request_roundtrip () =
  List.iteri
    (fun i req ->
      List.iter
        (fun id ->
          let line = Protocol.request_to_line ?id req in
          match Protocol.request_of_line line with
          | Error (_, e) -> Alcotest.failf "request %d failed to parse: %s" i e
          | Ok (id', req') ->
              Alcotest.(check (option int))
                (Printf.sprintf "request %d id" i)
                id id';
              Alcotest.(check string)
                (Printf.sprintf "request %d re-encodes identically" i)
                line
                (Protocol.request_to_line ?id:id' req'))
        [ None; Some i ])
    sample_requests

let sample_views =
  [
    {
      Protocol.v_session = "alpha";
      v_state = Protocol.Live;
      v_position = None;
      v_iteration = 10;
      v_examples = 10;
      v_observations = 46;
      v_cost_s = 264.13644667420232;
      v_rmse = Some 12.532804083947969;
    };
    {
      Protocol.v_session = "beta";
      v_state = Protocol.Queued;
      v_position = Some 2;
      v_iteration = 0;
      v_examples = 0;
      v_observations = 0;
      v_cost_s = 0.0;
      v_rmse = None;
    };
  ]

let sample_responses =
  let memo =
    {
      Protocol.m_lookups = 184;
      m_entries = 10;
      m_hits = 174;
      m_shared_keys = 10;
      m_cross_hits = 92;
    }
  in
  [
    { Protocol.r_id = Some 1; r_result = Ok (Protocol.R_session (List.hd sample_views)) };
    { Protocol.r_id = None; r_result = Ok (Protocol.R_tick sample_views) };
    {
      Protocol.r_id = Some 2;
      r_result =
        Ok
          (Protocol.R_stats
             {
               Protocol.s_opened = 5;
               s_live = 2;
               s_queued = 1;
               s_done = 1;
               s_closed = 1;
               s_max_live = 8;
               s_max_queue = 64;
               s_memo = memo;
             });
    };
    {
      Protocol.r_id = Some 7;
      r_result =
        Ok
          (Protocol.R_stats_full
             (Json.Obj
                [
                  ("uptime_s", Json.Float 1.5);
                  ("server", Json.Obj [ ("live", Json.Int 2) ]);
                ]));
    };
    {
      Protocol.r_id = Some 8;
      r_result =
        Ok
          (Protocol.R_prom
             "# TYPE serve_requests counter\nserve_requests 12\n");
    };
    {
      Protocol.r_id = Some 3;
      r_result =
        Ok
          (Protocol.R_checkpoint
             { session = "alpha"; path = "/tmp/a.json"; iteration = 10 });
    };
    {
      Protocol.r_id = None;
      r_result = Ok (Protocol.R_close { session = "beta"; admitted = [ "gamma" ] });
    };
    {
      Protocol.r_id = Some 4;
      r_result =
        Ok
          (Protocol.R_shutdown
             { checkpointed = [ ("alpha", "/tmp/a.json"); ("beta", "/tmp/b.json") ] });
    };
    { Protocol.r_id = Some 9; r_result = Error "no such session: gamma" };
  ]

let test_response_roundtrip () =
  List.iteri
    (fun i resp ->
      let line = Protocol.response_to_line resp in
      match Protocol.response_of_line line with
      | Error e -> Alcotest.failf "response %d failed to parse: %s" i e
      | Ok resp' ->
          Alcotest.(check string)
            (Printf.sprintf "response %d re-encodes identically" i)
            line
            (Protocol.response_to_line resp'))
    sample_responses

let test_malformed_lines () =
  let cases =
    [
      ("not json at all", "{oops");
      ("not an object", "[1, 2]");
      ("missing req", "{\"id\": 3}");
      ("unknown req", "{\"id\": 7, \"req\": \"nonsense\"}");
      ("open without session", "{\"req\": \"open\", \"bench\": \"lu\"}");
      ("step without session", "{\"req\": \"step\"}");
    ]
  in
  List.iter
    (fun (what, line) ->
      match Protocol.request_of_line line with
      | Ok _ -> Alcotest.failf "%s: parsed successfully" what
      | Error _ -> ())
    cases;
  (* A parse error still echoes the request id so the client can match
     the error reply to its request. *)
  (match Protocol.request_of_line "{\"id\": 7, \"req\": \"nonsense\"}" with
  | Ok _ -> Alcotest.fail "unknown req parsed"
  | Error (id, _) -> Alcotest.(check (option int)) "error echoes id" (Some 7) id);
  (* And the server turns it into an error response line, not a crash. *)
  let s = server () in
  let reply = Server.handle_line s "{\"id\": 7, \"req\": \"nonsense\"}" in
  match Protocol.response_of_line reply with
  | Error e -> Alcotest.failf "error reply unparseable: %s" e
  | Ok r ->
      Alcotest.(check (option int)) "reply echoes id" (Some 7) r.Protocol.r_id;
      Alcotest.(check bool) "reply is an error" true
        (Result.is_error r.Protocol.r_result)

(* --- Session lifecycle ------------------------------------------------- *)

let test_lifecycle () =
  let s = server () in
  let v = view (ok (Server.handle s (open_req "a" "hessian"))) in
  check_state "admitted live" Protocol.Live v;
  Alcotest.(check int) "starts unstepped" 0 v.Protocol.v_iteration;
  let v =
    view (ok (Server.handle s (Protocol.Step { session = "a"; iterations = 2 })))
  in
  check_state "still live mid-run" Protocol.Live v;
  (* smoke n_init = 4 seeds the model, then 2 adaptive iterations. *)
  Alcotest.(check int) "stepped to n_init + 2" 6 v.Protocol.v_iteration;
  Alcotest.(check bool) "profiled some configs" true (v.Protocol.v_examples > 0);
  Alcotest.(check bool) "accumulated cost" true (v.Protocol.v_cost_s > 0.0);
  let v =
    view
      (ok (Server.handle s (Protocol.Step { session = "a"; iterations = 100 })))
  in
  check_state "finished at its cap" Protocol.Done v;
  Alcotest.(check int) "ran to n_max" 8 v.Protocol.v_iteration;
  Alcotest.(check bool) "final rmse reported" true
    (v.Protocol.v_rmse <> None);
  (* A finished session cannot be stepped further, but stays queryable. *)
  ignore
    (err (Server.handle s (Protocol.Step { session = "a"; iterations = 1 })));
  let v' = view (ok (Server.handle s (Protocol.Status { session = "a" }))) in
  Alcotest.(check int) "done session holds its final iteration"
    v.Protocol.v_iteration v'.Protocol.v_iteration;
  (match ok (Server.handle s (Protocol.Close { session = "a" })) with
  | Protocol.R_close { session; admitted } ->
      Alcotest.(check string) "closed a" "a" session;
      Alcotest.(check (list string)) "nothing queued to promote" [] admitted
  | _ -> Alcotest.fail "expected a close reply");
  check_state "closed" Protocol.Closed
    (view (ok (Server.handle s (Protocol.Status { session = "a" }))));
  ignore (err (Server.handle s (Protocol.Step { session = "a"; iterations = 1 })));
  ignore (err (Server.handle s (Protocol.Status { session = "nope" })));
  let stats = Server.stats s in
  Alcotest.(check int) "one session opened" 1 stats.Protocol.s_opened;
  Alcotest.(check int) "one session closed" 1 stats.Protocol.s_closed

(* --- Admission control -------------------------------------------------- *)

let test_admission () =
  let s = server ~max_live:1 ~max_queue:1 ~budget_cap:100_000.0 () in
  (* The cap makes budgets mandatory. *)
  ignore (err (Server.handle s (open_req "free" "hessian")));
  ignore
    (err (Server.handle s (open_req ~budget:200_000.0 "greedy" "hessian")));
  let v =
    view (ok (Server.handle s (open_req ~budget:50_000.0 "a" "hessian")))
  in
  check_state "first session live" Protocol.Live v;
  ignore (err (Server.handle s (open_req ~budget:50_000.0 "a" "lu")));
  ignore (err (Server.handle s (open_req ~budget:50_000.0 "b" "no-such")));
  ignore
    (err
       (Server.handle s
          (open_req ~budget:50_000.0 ~scale:"no-such" "b" "lu")));
  ignore
    (err
       (Server.handle s
          (open_req ~budget:50_000.0 ~fault:"bogus-spec" "b" "lu")));
  let v = view (ok (Server.handle s (open_req ~budget:50_000.0 "b" "lu"))) in
  check_state "second session queued" Protocol.Queued v;
  Alcotest.(check (option int)) "at queue head" (Some 0) v.Protocol.v_position;
  (* Queue is full now. *)
  ignore (err (Server.handle s (open_req ~budget:50_000.0 "c" "lu")));
  (* A queued session cannot step... *)
  ignore (err (Server.handle s (Protocol.Step { session = "b"; iterations = 1 })));
  (* ...until closing the live one promotes it, deterministically inside
     the close request itself. *)
  (match ok (Server.handle s (Protocol.Close { session = "a" })) with
  | Protocol.R_close { admitted; _ } ->
      Alcotest.(check (list string)) "close promoted the queue head" [ "b" ]
        admitted
  | _ -> Alcotest.fail "expected a close reply");
  check_state "promoted session live" Protocol.Live
    (view (ok (Server.handle s (Protocol.Status { session = "b" }))));
  let v =
    view (ok (Server.handle s (Protocol.Step { session = "b"; iterations = 1 })))
  in
  Alcotest.(check int) "promoted session steps" 5 v.Protocol.v_iteration

(* --- Shared-memo accounting --------------------------------------------- *)

let test_memo_accounting () =
  let s = server () in
  ignore (ok (Server.handle s (open_req "a" "hessian")));
  ignore (ok (Server.handle s (open_req "b" "hessian")));
  ignore (ok (Server.handle s (Protocol.Tick { iterations = 2 })));
  let m = Server.memo_stats s in
  Alcotest.(check bool) "lookups happened" true (m.Protocol.m_lookups > 0);
  Alcotest.(check int) "hits = lookups - entries"
    (m.Protocol.m_lookups - m.Protocol.m_entries)
    m.Protocol.m_hits;
  (* Identical (bench, seed) sessions demand identical configurations:
     every key is shared, and every lookup by the second-admitted
     session is a cross-session hit. *)
  Alcotest.(check int) "twin sessions share every key" m.Protocol.m_entries
    m.Protocol.m_shared_keys;
  Alcotest.(check int) "twin lookups split evenly"
    (m.Protocol.m_lookups / 2)
    m.Protocol.m_cross_hits;
  (* A third tenant on a different kernel shares nothing. *)
  ignore (ok (Server.handle s (open_req "c" "lu")));
  ignore
    (ok (Server.handle s (Protocol.Step { session = "c"; iterations = 2 })));
  let m' = Server.memo_stats s in
  Alcotest.(check int) "disjoint kernel adds no shared keys"
    m.Protocol.m_shared_keys m'.Protocol.m_shared_keys;
  Alcotest.(check int) "disjoint kernel adds no cross hits"
    m.Protocol.m_cross_hits m'.Protocol.m_cross_hits;
  Alcotest.(check bool) "disjoint kernel adds entries" true
    (m'.Protocol.m_entries > m.Protocol.m_entries)

(* The server keeps one instance per kernel: a second session on the
   same (kernel, seed) demands the same configurations, so all of its
   evaluations are hits in the shared store. *)
let test_shared_instance () =
  let misses = Metrics.counter "spapt.cache.misses" in
  let s = server () in
  let step name =
    view
      (ok (Server.handle s (Protocol.Step { session = name; iterations = 2 })))
  in
  let m0 = Metrics.counter_value misses in
  ignore (ok (Server.handle s (open_req "a" "mvt")));
  let va = step "a" in
  let m1 = Metrics.counter_value misses in
  ignore (ok (Server.handle s (open_req "b" "mvt")));
  let vb = step "b" in
  let m2 = Metrics.counter_value misses in
  Alcotest.(check bool) "first session fills the store" true (m1 > m0);
  Alcotest.(check int) "second session's evaluations are store hits" 0
    (m2 - m1);
  Alcotest.(check bool) "same progress" true
    ({ vb with Protocol.v_session = "a" } = va)

(* A closed session keeps only its view: status replies are unchanged
   but for the state, and there is nothing left to checkpoint. *)
let test_closed_session () =
  let s = server () in
  ignore (ok (Server.handle s (open_req ~n_max:None "a" "hessian")));
  ignore
    (ok (Server.handle s (Protocol.Step { session = "a"; iterations = 1 })));
  let status () = view (ok (Server.handle s (Protocol.Status { session = "a" }))) in
  let before = status () in
  ignore (ok (Server.handle s (Protocol.Close { session = "a" })));
  let after = status () in
  Alcotest.(check bool) "view frozen at close" true
    ({ before with Protocol.v_state = Protocol.Closed } = after);
  Alcotest.(check bool) "still frozen" true (status () = after);
  let path = Filename.concat (Filename.get_temp_dir_name ()) "never.ck.json" in
  let e =
    err (Server.handle s (Protocol.Checkpoint { session = "a"; path = Some path }))
  in
  Alcotest.(check bool) "closed session refuses to checkpoint" true
    (String.ends_with ~suffix:"is closed" e)

(* --- Graceful shutdown --------------------------------------------------- *)

let test_shutdown () =
  let dir = Filename.temp_file "altune-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let s = server ~checkpoint_dir:dir () in
  (* Stock settings (no n_max override), so the checkpoint is resumable
     by `altune resume`. *)
  ignore (ok (Server.handle s (open_req ~n_max:None "a" "hessian")));
  ignore (ok (Server.handle s (Protocol.Step { session = "a"; iterations = 2 })));
  (* A second session with no progress yet: nothing to checkpoint. *)
  ignore (ok (Server.handle s (open_req ~n_max:None "b" "lu")));
  (match ok (Server.handle s Protocol.Shutdown) with
  | Protocol.R_shutdown { checkpointed } ->
      Alcotest.(check (list string)) "stepped session checkpointed" [ "a" ]
        (List.map fst checkpointed);
      List.iter
        (fun (_, path) ->
          Alcotest.(check bool) "checkpoint file exists" true
            (Sys.file_exists path);
          let ic = open_in path in
          let n = in_channel_length ic in
          let body = really_input_string ic n in
          close_in ic;
          Alcotest.(check bool) "checkpoint parses as JSON" true
            (Result.is_ok (Json.of_string body)))
        checkpointed
  | _ -> Alcotest.fail "expected a shutdown reply");
  Alcotest.(check bool) "server refuses new work" true
    (Result.is_error (Server.handle s (open_req "c" "hessian")));
  (* Stats stay readable after shutdown, and shutdown is idempotent. *)
  ignore (ok (Server.handle s Protocol.Stats));
  Alcotest.(check (list string)) "second shutdown is a no-op" []
    (List.map fst (Server.graceful_stop s));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let test_checkpoint_rules () =
  let s = server () in
  let path = Filename.temp_file "altune-serve" ".ck.json" in
  (* Budget/n_max overrides change the learner stream, so their
     checkpoints could not be resumed faithfully by `altune resume`:
     refused. *)
  ignore (ok (Server.handle s (open_req "capped" "hessian")));
  ignore
    (ok (Server.handle s (Protocol.Step { session = "capped"; iterations = 1 })));
  ignore
    (err
       (Server.handle s
          (Protocol.Checkpoint { session = "capped"; path = Some path })));
  (* A stock session checkpoints fine once it has progress... *)
  ignore (ok (Server.handle s (open_req ~n_max:None "stock" "hessian")));
  ignore
    (err
       (Server.handle s
          (Protocol.Checkpoint { session = "stock"; path = Some path })));
  ignore
    (ok (Server.handle s (Protocol.Step { session = "stock"; iterations = 2 })));
  (match
     ok
       (Server.handle s
          (Protocol.Checkpoint { session = "stock"; path = Some path }))
   with
  | Protocol.R_checkpoint { session; path = p; iteration } ->
      Alcotest.(check string) "checkpointed the right session" "stock" session;
      Alcotest.(check string) "at the requested path" path p;
      Alcotest.(check int) "after n_init + 2 iterations" 6 iteration;
      Alcotest.(check bool) "file written" true (Sys.file_exists p)
  | _ -> Alcotest.fail "expected a checkpoint reply");
  (* ...and without any path configured there is nowhere to write. *)
  ignore
    (err
       (Server.handle s (Protocol.Checkpoint { session = "stock"; path = None })));
  Sys.remove path

(* --- Failure ledger ------------------------------------------------------ *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* Any error reply appends a record to the failure ledger, carrying the
   offending request line and a dump of the flight recorder's retained
   trace lines. *)
let test_failure_ledger () =
  let ledger = Filename.temp_file "altune-ledger" ".jsonl" in
  Sys.remove ledger;
  let flight = Altune_obs.Flight.create ~capacity:8 () in
  Altune_obs.Flight.install flight;
  Fun.protect ~finally:Altune_obs.Trace.uninstall (fun () ->
      let s = server ~ledger_path:ledger ~flight () in
      ignore (Server.handle_line s "{oops");
      ignore
        (Server.handle_line s "{\"req\": \"step\", \"session\": \"ghost\"}");
      let records =
        List.map
          (fun line ->
            match Json.of_string line with
            | Ok j -> j
            | Error e -> Alcotest.failf "ledger line unparseable: %s" e)
          (read_lines ledger)
      in
      Alcotest.(check int) "one ledger record per error" 2
        (List.length records);
      List.iter
        (fun r ->
          Alcotest.(check (option string))
            "tagged as ledger record" (Some "ledger")
            (Option.bind (Json.member "ev" r) Json.to_string_opt);
          Alcotest.(check bool) "carries the error" true
            (Json.member "error" r <> None);
          Alcotest.(check bool) "carries the request line" true
            (Json.member "request" r <> None);
          match Json.member "flight" r with
          | Some (Json.List _) -> ()
          | _ -> Alcotest.fail "flight dump missing from ledger record")
        records;
      (* An OK request appends nothing. *)
      ignore (Server.handle_line s "{\"req\": \"stats\"}");
      Alcotest.(check int) "ok requests leave the ledger alone" 2
        (List.length (read_lines ledger)));
  Sys.remove ledger

(* --- Transcript determinism ---------------------------------------------- *)

(* A fixed scripted client: overlapping tenants on two kernels, a queued
   session promoted mid-script, interleaved status/stats probes, a
   malformed line, and a final shutdown.  The response byte stream must
   not depend on the domain count. *)
let script =
  [
    "{\"id\": 1, \"req\": \"open\", \"session\": \"a\", \"bench\": \
     \"hessian\", \"n_max\": 8}";
    "{\"id\": 2, \"req\": \"open\", \"session\": \"b\", \"bench\": \
     \"hessian\", \"n_max\": 8}";
    "{\"id\": 3, \"req\": \"open\", \"session\": \"c\", \"bench\": \"lu\", \
     \"n_max\": 8}";
    "{\"id\": 4, \"req\": \"open\", \"session\": \"d\", \"bench\": \"lu\", \
     \"n_max\": 8}";
    "{\"id\": 5, \"req\": \"tick\", \"iterations\": 3}";
    "{\"id\": 6, \"req\": \"status\", \"session\": \"d\"}";
    "{\"id\": 7, \"req\": \"nonsense\"}";
    "{\"id\": 8, \"req\": \"tick\", \"iterations\": 3}";
    "{\"id\": 9, \"req\": \"close\", \"session\": \"a\"}";
    "{\"id\": 10, \"req\": \"tick\", \"iterations\": 9}";
    "{\"id\": 11, \"req\": \"stats\"}";
    "{\"id\": 12, \"req\": \"shutdown\"}";
  ]

let transcript ~jobs =
  (* max_live = 3 forces session d through the queue. *)
  let s = server ~jobs ~max_live:3 () in
  String.concat "\n" (List.map (Server.handle_line s) script)

let test_transcript_across_jobs () =
  let t1 = transcript ~jobs:1 in
  let t4 = transcript ~jobs:4 in
  Alcotest.(check string) "transcripts byte-identical at jobs 1 and 4" t1 t4;
  (* The script must actually exercise the interesting machinery. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "script saw an error reply" true
    (contains t1 "\"ok\":false")

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick
            test_response_roundtrip;
          Alcotest.test_case "malformed lines become error replies" `Quick
            test_malformed_lines;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "admission control" `Quick test_admission;
          Alcotest.test_case "checkpoint rules" `Quick test_checkpoint_rules;
          Alcotest.test_case "graceful shutdown" `Quick test_shutdown;
        ] );
      ( "memo",
        [
          Alcotest.test_case "cross-session accounting" `Quick
            test_memo_accounting;
          Alcotest.test_case "one instance per kernel" `Quick
            test_shared_instance;
          Alcotest.test_case "closed sessions keep only their view" `Quick
            test_closed_session;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "errors land in the failure ledger" `Quick
            test_failure_ledger;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "transcript identical at jobs=1 and jobs=4" `Slow
            test_transcript_across_jobs;
        ] );
    ]
