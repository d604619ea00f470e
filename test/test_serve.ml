(* The tuning service: wire-protocol codecs must round-trip (and turn
   malformed input into error replies rather than crashes), sessions
   must walk the queued -> live -> done -> closed state machine under
   the documented admission policy, the shared cross-session memo must
   account hits schedule-independently, and a fixed request script must
   produce a byte-identical response transcript at any jobs count. *)

module Protocol = Altune_serve.Protocol
module Server = Altune_serve.Server
module Daemon = Altune_serve.Daemon
module Json = Altune_obs.Json
module Metrics = Altune_obs.Metrics
module Events = Altune_obs.Events
module Learner = Altune_core.Learner
module Checkpoint = Altune_core.Checkpoint
module Spapt = Altune_spapt.Spapt
module Scale = Altune_experiments.Scale
module Adapter = Altune_experiments.Adapter
module Runs = Altune_experiments.Runs
module Rng = Altune_prng.Rng
module Fault = Altune_exec.Fault
module Pool = Altune_exec.Pool
module Tune_run = Altune_experiments.Tune_run
module Lookups = Altune_serve.Lookups

let server ?(jobs = 1) ?(max_live = 8) ?(max_queue = 64) ?budget_cap
    ?checkpoint_dir ?snapshot_path ?flight ?ledger_path ?events () =
  Server.create ?events
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
  (* Each line's error reply is pinned byte for byte: clients match on
     these texts, so a decoder rewrite must keep them. *)
  let cases =
    [
      ( "not json at all",
        "{oops",
        {|{"ok":false,"error":"malformed JSON: JSON error at offset 1: expected '\"'"}|}
      );
      ( "not an object",
        "[1, 2]",
        {|{"ok":false,"error":"request must be a JSON object"}|} );
      ( "missing req",
        "{\"id\": 3}",
        {|{"id":3,"ok":false,"error":"missing or non-string \"req\" field"}|} );
      ( "unknown req",
        "{\"id\": 7, \"req\": \"nonsense\"}",
        {|{"id":7,"ok":false,"error":"unknown request \"nonsense\""}|} );
      ( "open without session",
        "{\"req\": \"open\", \"bench\": \"lu\"}",
        {|{"ok":false,"error":"missing or non-string \"session\" field"}|} );
      ( "step without session",
        "{\"req\": \"step\"}",
        {|{"ok":false,"error":"missing or non-string \"session\" field"}|} );
      ( "non-integer id",
        "{\"id\": \"x\", \"req\": \"stats\"}",
        {|{"ok":false,"error":"non-integer \"id\" field"}|} );
      ( "non-integer iterations",
        "{\"id\": 4, \"req\": \"tick\", \"iterations\": 1.5}",
        {|{"id":4,"ok":false,"error":"non-integer \"iterations\" field"}|} );
      ( "non-number budget",
        "{\"req\": \"open\", \"session\": \"a\", \"bench\": \"lu\", \
         \"budget\": \"9\"}",
        {|{"ok":false,"error":"non-number \"budget\" field"}|} );
      ( "non-string path",
        "{\"req\": \"checkpoint\", \"session\": \"a\", \"path\": 5}",
        {|{"ok":false,"error":"non-string \"path\" field"}|} );
    ]
  in
  let s = server () in
  List.iter
    (fun (what, line, expected) ->
      (match Protocol.request_of_line line with
      | Ok _ -> Alcotest.failf "%s: parsed successfully" what
      | Error _ -> ());
      Alcotest.(check string) what expected (Server.handle_line s line))
    cases;
  (* A parse error still echoes the request id so the client can match
     the error reply to its request. *)
  (match Protocol.request_of_line "{\"id\": 7, \"req\": \"nonsense\"}" with
  | Ok _ -> Alcotest.fail "unknown req parsed"
  | Error (id, _) -> Alcotest.(check (option int)) "error echoes id" (Some 7) id);
  (* And the server turns it into an error response line, not a crash. *)
  let reply = Server.handle_line s "{\"id\": 7, \"req\": \"nonsense\"}" in
  match Protocol.response_of_line reply with
  | Error e -> Alcotest.failf "error reply unparseable: %s" e
  | Ok r ->
      Alcotest.(check (option int)) "reply echoes id" (Some 7) r.Protocol.r_id;
      Alcotest.(check bool) "reply is an error" true
        (Result.is_error r.Protocol.r_result)

(* Serve's open refusals are wire texts clients may match on: each is
   pinned, and when several checks fail the first one's text is sent. *)
let test_open_refusals () =
  let known =
    "adi, atax, bicgkernel, correlation, dgemv3, gemver, hessian, jacobi, \
     lu, mm, mvt"
  in
  let s = server () in
  List.iter
    (fun (fields, expected) ->
      let line = "{\"req\":\"open\"," ^ fields ^ "}" in
      Alcotest.(check string) fields
        (Printf.sprintf {|{"ok":false,"error":%s}|}
           (Json.to_string (Json.String expected)))
        (Server.handle_line s line))
    [
      ({|"session":"","bench":"nosuch"|}, "empty session name");
      ( {|"session":"a","bench":"nosuch","scale":"huge"|},
        "unknown benchmark \"nosuch\"; known: " ^ known );
      ({|"session":"a","bench":"lu","scale":"huge"|}, "unknown scale \"huge\"");
      ( {|"session":"a","bench":"lu","fault":"bogus","n_max":0|},
        "bad fault spec: fault spec: expected key=value, got \"bogus\"" );
      ( {|"session":"a","bench":"lu","fault":"crash=2"|},
        "bad fault spec: fault spec: crash: probability out of [0,1]: 2" );
      ({|"session":"a","bench":"lu","n_max":0|}, "budget and n_max must be positive");
      ({|"session":"a","bench":"lu","budget":0|}, "budget and n_max must be positive");
    ]

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

(* The counts [stats] reports equal a recount of every opened session's
   status, and each queued session's position is its rank among the
   queued ones in open order, after a seeded mix of opens (admitted,
   queued and refused), steps, ticks and closes of sessions in every
   phase. *)
let test_counts_equal_recount () =
  let s = server ~max_live:2 ~max_queue:3 () in
  let rng = Random.State.make [| 31 |] in
  let opened = ref [] (* newest first *) and next = ref 0 in
  let requests = ref 0 in
  let handle req =
    incr requests;
    Server.handle s req
  in
  let refused = ref 0 and queued_opens = ref 0 in
  let closes = Hashtbl.create 4 in
  (* One of the eight newest sessions, so that most closes free a slot. *)
  let pick () =
    List.nth !opened (Random.State.int rng (min 8 (List.length !opened)))
  in
  let status name =
    view (ok (Server.handle s (Protocol.Status { session = name })))
  in
  let recount () =
    let views = List.rev_map status !opened in
    let stats = Server.stats s in
    let count st =
      List.length (List.filter (fun v -> v.Protocol.v_state = st) views)
    in
    Alcotest.(check (list int))
      "opened, live, queued, done, closed"
      [
        List.length views;
        count Protocol.Live;
        count Protocol.Queued;
        count Protocol.Done;
        count Protocol.Closed;
      ]
      [
        stats.Protocol.s_opened;
        stats.s_live;
        stats.s_queued;
        stats.s_done;
        stats.s_closed;
      ];
    List.iteri
      (fun rank v ->
        Alcotest.(check (option int))
          (v.Protocol.v_session ^ "'s position")
          (Some rank) v.Protocol.v_position)
      (List.filter (fun v -> v.Protocol.v_state = Protocol.Queued) views)
  in
  for i = 1 to 600 do
    (match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 -> (
        let name = Printf.sprintf "s%d" !next in
        incr next;
        match
          handle
            (open_req ~seed:(!next mod 2) ~n_max:(Some 6) name "mvt")
        with
        | Ok r ->
            if (view r).Protocol.v_state = Protocol.Queued then
              incr queued_opens;
            opened := name :: !opened
        | Error _ -> incr refused)
    | 4 when !opened <> [] ->
        ignore
          (handle
             (Protocol.Step
                { session = pick (); iterations = 1 + Random.State.int rng 2 }))
    | 5 ->
        ignore
          (handle (Protocol.Tick { iterations = 1 + Random.State.int rng 2 }))
    | _ when !opened <> [] ->
        let name = pick () in
        let phase =
          state_label
            (view (ok (handle (Protocol.Status { session = name }))))
              .Protocol.v_state
        in
        ignore (handle (Protocol.Close { session = name }));
        Hashtbl.replace closes phase
          (1 + Option.value ~default:0 (Hashtbl.find_opt closes phase))
    | _ -> ());
    if i mod 50 = 0 then recount ()
  done;
  recount ();
  Alcotest.(check bool) "at least 300 requests" true (!requests >= 300);
  Alcotest.(check bool) "at least 100 sessions" true
    (List.length !opened >= 100);
  Alcotest.(check bool) "some opens queued" true (!queued_opens > 0);
  Alcotest.(check bool) "some opens refused" true (!refused > 0);
  List.iter
    (fun phase ->
      Alcotest.(check bool) ("closed a " ^ phase ^ " session") true
        (Hashtbl.mem closes phase))
    [ "queued"; "live"; "done"; "closed" ]

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

(* The run `altune tune --bench hessian --scale smoke --seed 42` makes,
   streaming on [events] under its run key. *)
let standalone_hessian ?events () =
  let b = Spapt.create "hessian" in
  let events =
    Option.map (fun sink -> Events.stream sink "hessian/smoke/tune/0") events
  in
  Learner.run ?events (Adapter.problem_of b)
    (Runs.dataset_for b Scale.smoke ~seed:42)
    Scale.smoke.adaptive ~rng:(Rng.create ~seed:42)

(* A session holds its learner between requests: stepped one iteration
   at a time to its cap, it updates the surrogate exactly as often as
   one standalone run does (no request replays the observation log),
   and ends with the standalone run's figures, bit for bit. *)
let test_live_learner () =
  let observes = Metrics.counter "surrogate.observes" in
  let before = Metrics.counter_value observes in
  let o = standalone_hessian () in
  let per_run = Metrics.counter_value observes - before in
  let s = server () in
  ignore (ok (Server.handle s (open_req ~n_max:None "a" "hessian")));
  let before = Metrics.counter_value observes in
  let rec finish steps =
    let v =
      view (ok (Server.handle s (Protocol.Step { session = "a"; iterations = 1 })))
    in
    if v.Protocol.v_state = Protocol.Done then (v, steps + 1)
    else finish (steps + 1)
  in
  let v, steps = finish 0 in
  let n_max = Scale.smoke.adaptive.Learner.n_max in
  Alcotest.(check int) "one step per iteration"
    (n_max - Scale.smoke.adaptive.Learner.n_init)
    steps;
  Alcotest.(check int) "observes of one run" per_run
    (Metrics.counter_value observes - before);
  let bits = Int64.bits_of_float in
  Alcotest.(check int) "iteration" n_max v.Protocol.v_iteration;
  Alcotest.(check int) "examples" o.distinct_examples v.Protocol.v_examples;
  Alcotest.(check int) "observations" o.total_runs v.Protocol.v_observations;
  Alcotest.(check int64) "cost" (bits o.total_cost) (bits v.Protocol.v_cost_s);
  Alcotest.(check (option int64))
    "rmse"
    (Some (bits o.final_rmse))
    (Option.map bits v.Protocol.v_rmse)

(* The learner events of a served session form one stream: the stock
   session of bench/serve_script.jsonl, stepped by two ticks on a
   two-domain pool and then one step, emits the events of the
   standalone tune run up to its iteration 20 — one [start], in order —
   under its own run key. *)
let test_session_events () =
  let events key lines =
    match Events.of_lines lines with
    | Error e -> Alcotest.fail e
    | Ok f ->
        List.filter_map
          (fun (e : Events.t) ->
            if e.run = key then
              Some (e, Json.to_string (Events.to_json { e with run = "" }))
            else None)
          f.events
  in
  let upto_20 ((e : Events.t), _) =
    match e.kind with
    | Events.Select { iteration; _ } | Events.Eval { iteration; _ } ->
        iteration <= 20
    | Events.Finish _ -> false
    | Events.Start _ | Events.Fault _ -> true
  in
  let _, tune_lines =
    Events.with_memory (fun events -> ignore (standalone_hessian ~events ()))
  in
  let _, serve_lines =
    Events.with_memory (fun events ->
        let s = server ~jobs:2 ~max_live:2 ~events () in
        List.iter
          (fun req -> ignore (ok (Server.handle s req)))
          [
            open_req ~n_max:None "ck" "hessian";
            open_req "t1" "lu";
            open_req "t2" "lu";
            Protocol.Tick { iterations = 4 };
            Protocol.Tick { iterations = 4 };
            Protocol.Step { session = "ck"; iterations = 8 };
          ])
  in
  let tune = List.filter upto_20 (events "hessian/smoke/tune/0" tune_lines) in
  let ck = events "serve/ck" serve_lines in
  Alcotest.(check (list string))
    "session ck's events" (List.map snd tune) (List.map snd ck);
  (* start, evals at iterations 4, 10 and 20, selects 5 to 20 *)
  Alcotest.(check int) "events up to iteration 20" 20 (List.length ck)

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

(* The accounting's running totals equal the multiset definition, in
   any lookup order: entries are the distinct keys; a key is shared
   when two or more sessions looked it up; its cross hits are the
   lookups by sessions other than the lowest id that looked it up. *)
let prop_lookups_multiset =
  QCheck.Test.make ~count:300 ~name:"accounting = multiset definition"
    QCheck.(
      make
        Gen.(
          list_size (int_range 0 80) (pair (int_bound 6) (int_bound 4))
          >>= fun l -> map (fun order -> (l, order)) (shuffle_l l)))
    (fun (lookups, order) ->
      let acc = Lookups.create () in
      List.iter
        (fun (k, session) ->
          Lookups.note acc ~session ("k" ^ string_of_int k, "c"))
        order;
      let keys = List.sort_uniq compare (List.map fst lookups) in
      let sessions k =
        List.filter_map (fun (k', s) -> if k' = k then Some s else None) lookups
      in
      let sum f = List.fold_left (fun a k -> a + f (sessions k)) 0 keys in
      let distinct l = List.length (List.sort_uniq compare l) in
      let cross l =
        let owner = List.fold_left min max_int l in
        List.length (List.filter (fun s -> s <> owner) l)
      in
      let n = List.length lookups and entries = List.length keys in
      Lookups.stats acc
      = {
          Protocol.m_lookups = n;
          m_entries = entries;
          m_hits = n - entries;
          m_shared_keys = sum (fun l -> if distinct l > 1 then 1 else 0);
          m_cross_hits = sum cross;
        })

(* --- Tune runs ------------------------------------------------------------ *)

let tune_fault =
  match Fault.of_string "crash=0.05,timeout=0.02" with
  | Ok s -> s
  | Error e -> failwith e

(* `altune tune --bench hessian --scale smoke --seed 42` with the
   @fault-smoke fault spec. *)
let faulty_spec =
  {
    Tune_run.bench = "hessian";
    scale = Scale.smoke;
    seed = 42;
    fault = Some tune_fault;
    n_max = None;
    budget = None;
  }

let pool1 = lazy (Pool.create ~jobs:1 ())

let to_end run =
  match Tune_run.step run ~iterations:max_int with
  | Some o -> o
  | None -> Alcotest.fail "a step to max_int paused"

let check_same_outcome what (a : Learner.outcome) (b : Learner.outcome) =
  let bits = Int64.bits_of_float in
  let curve (o : Learner.outcome) =
    List.map
      (fun (p : Learner.eval_point) ->
        (p.iteration, p.examples, p.observations, bits p.cost_seconds,
         bits p.rmse))
      o.curve
  in
  Alcotest.(check bool) (what ^ ": curve") true (curve a = curve b);
  Alcotest.(check int64) (what ^ ": cost") (bits a.total_cost)
    (bits b.total_cost);
  Alcotest.(check int) (what ^ ": runs") a.total_runs b.total_runs;
  Alcotest.(check int) (what ^ ": examples") a.distinct_examples
    b.distinct_examples;
  Alcotest.(check int64) (what ^ ": rmse") (bits a.final_rmse)
    (bits b.final_rmse);
  let b' = Spapt.create "hessian" in
  Array.iter
    (fun c ->
      Alcotest.(check int64) (what ^ ": prediction")
        (bits (a.predict c)) (bits (b.predict c)))
    (Runs.dataset_for b' Scale.smoke ~seed:42).test_configs

let with_ck_file f =
  let path = Filename.temp_file "altune-tune-run" ".ck.json" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let resume_from ?(spec = faulty_spec) path =
  match Tune_run.load path with
  | Error e -> Alcotest.fail e
  | Ok (saved, state) ->
      (* A scale holds its surrogate factory: compare by label. *)
      let fields (sp : Tune_run.spec) =
        (sp.bench, sp.scale.label, sp.seed, sp.fault, sp.n_max, sp.budget)
      in
      Alcotest.(check bool) "stored spec" true (fields saved = fields spec);
      to_end
        (Tune_run.start ~resume:state ~pool:(Lazy.force pool1)
           (Spapt.create "hessian") saved)

(* A fault-injected run checkpointed at iteration 20 and read back from
   the file resumes to the uninterrupted outcome, faults included. *)
let test_tune_run_resume_under_faults () =
  let faults () =
    List.fold_left
      (fun a n -> a + Metrics.counter_value (Metrics.counter n))
      0 [ "learner.fault.crash"; "learner.fault.timeout" ]
  in
  let before = faults () in
  let full =
    to_end
      (Tune_run.start ~pool:(Lazy.force pool1) (Spapt.create "hessian")
         faulty_spec)
  in
  Alcotest.(check bool) "faults injected" true (faults () > before);
  with_ck_file (fun path ->
      let run =
        Tune_run.start ~pool:(Lazy.force pool1) (Spapt.create "hessian")
          faulty_spec
      in
      Alcotest.(check bool) "paused" true
        (Tune_run.step run ~iterations:16 = None);
      (match Tune_run.save run ~path with
      | Ok iteration -> Alcotest.(check int) "saved at" 20 iteration
      | Error e -> Alcotest.fail e);
      check_same_outcome "resumed" full (resume_from path))

(* A served session opened with the same fault spec writes the same
   run's checkpoint. *)
let test_session_checkpoint_under_faults () =
  let full =
    to_end
      (Tune_run.start ~pool:(Lazy.force pool1) (Spapt.create "hessian")
         faulty_spec)
  in
  with_ck_file (fun path ->
      let s = server () in
      ignore
        (ok
           (Server.handle s
              (open_req ~fault:"crash=0.05,timeout=0.02" ~n_max:None "f"
                 "hessian")));
      ignore
        (ok (Server.handle s (Protocol.Step { session = "f"; iterations = 16 })));
      (match
         ok
           (Server.handle s
              (Protocol.Checkpoint { session = "f"; path = Some path }))
       with
      | Protocol.R_checkpoint { iteration; _ } ->
          Alcotest.(check int) "saved at" 20 iteration
      | _ -> Alcotest.fail "expected a checkpoint reply");
      check_same_outcome "resumed from serve" full (resume_from path))

(* A session opened with an [n_max] or a [budget] override is
   checkpointed mid-run with its overrides, and resumes to the
   uninterrupted session's outcome. *)
let test_overrides_resume () =
  let check (spec : Tune_run.spec) =
    let full =
      to_end
        (Tune_run.start ~pool:(Lazy.force pool1) (Spapt.create "hessian") spec)
    in
    let last = List.nth full.curve (List.length full.curve - 1) in
    Alcotest.(check bool) "stopped before the scale's cap" true
      (last.iteration < Scale.smoke.adaptive.n_max);
    with_ck_file (fun path ->
        let s = server () in
        ignore
          (ok
             (Server.handle s
                (open_req ~fault:"crash=0.05,timeout=0.02" ?budget:spec.budget
                   ~n_max:spec.n_max "o" "hessian")));
        ignore
          (ok
             (Server.handle s (Protocol.Step { session = "o"; iterations = 6 })));
        (match
           ok
             (Server.handle s
                (Protocol.Checkpoint { session = "o"; path = Some path }))
         with
        | Protocol.R_checkpoint { iteration; _ } ->
            Alcotest.(check int) "saved mid-run" 10 iteration
        | _ -> Alcotest.fail "expected a checkpoint reply");
        check_same_outcome "resumed with overrides" full
          (resume_from ~spec path);
        (* A checkpoint is input from outside the program: overrides
           that serve's open would refuse are refused on load too. *)
        let fields =
          match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
          | Ok (Json.Obj fields) -> fields
          | _ -> Alcotest.fail "a checkpoint is a JSON object"
        in
        List.iter
          (fun (key, bad) ->
            Out_channel.with_open_bin path (fun oc ->
                output_string oc
                  (Json.to_string
                     (Json.Obj ((key, bad) :: List.remove_assoc key fields))));
            Alcotest.(check (result reject string))
              ("refuses a bad " ^ key)
              (Error "budget and n_max must be positive in checkpoint")
              (Result.map ignore (Tune_run.load path)))
          [ ("n_max", Json.Int 0); ("budget", Json.String "0000000000000000") ])
  in
  check { faulty_spec with n_max = Some 30 };
  check { faulty_spec with budget = Some 700.0 }

(* [Learner.progress] reads the loop's counters; at every pause it
   agrees with the resume point and, at the end, with the outcome.
   Corrupted runs are profiled but not charged as runs, so the fault
   spec includes them. *)
let test_progress_agrees () =
  let b = Spapt.create "hessian" in
  let fault =
    Fault.create { tune_fault with corrupt = 0.1; timeout = 0.05 } ~seed:7
  in
  let learner =
    Learner.start ~fault
      (Adapter.problem_of b)
      (Runs.dataset_for b Scale.smoke ~seed:42)
      Scale.smoke.adaptive ~rng:(Rng.create ~seed:42)
  in
  let bits = Int64.bits_of_float in
  let rec go pauses =
    match Learner.step learner ~iterations:3 with
    | None ->
        let p = Learner.progress learner and st = Learner.state learner in
        let c = st.st_cost in
        Alcotest.(check int) "iteration" st.st_iteration p.pr_iteration;
        Alcotest.(check int) "examples" (List.length st.st_obs) p.pr_examples;
        Alcotest.(check int) "observations" c.snap_runs p.pr_observations;
        Alcotest.(check int64) "cost"
          (bits
             (c.snap_run_seconds +. c.snap_compile_seconds
            +. c.snap_failure_seconds))
          (bits p.pr_cost_s);
        Alcotest.(check (option int64))
          "rmse"
          (Option.map
             (fun (e : Learner.eval_point) -> bits e.rmse)
             (List.nth_opt (List.rev st.st_curve) 0))
          (Option.map bits p.pr_rmse);
        go (pauses + 1)
    | Some (o : Learner.outcome) ->
        let p = Learner.progress learner in
        let last = List.nth o.curve (List.length o.curve - 1) in
        Alcotest.(check int) "final iteration" last.iteration p.pr_iteration;
        Alcotest.(check int) "final examples" o.distinct_examples
          p.pr_examples;
        Alcotest.(check int) "final observations" o.total_runs
          p.pr_observations;
        Alcotest.(check int64) "final cost" (bits o.total_cost)
          (bits p.pr_cost_s);
        Alcotest.(check (option int64))
          "final rmse" (Some (bits o.final_rmse))
          (Option.map bits p.pr_rmse);
        pauses
  in
  Alcotest.(check bool) "paused along the way" true (go 0 > 10)

(* --- Graceful shutdown --------------------------------------------------- *)

let test_shutdown () =
  let dir = Filename.temp_file "altune-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let s = server ~checkpoint_dir:dir () in
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
  (* A session checkpoints fine once it has progress... *)
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

(* A checkpoint that cannot be written is an error reply, not the end
   of the daemon: the next request is answered, and shutdown still
   checkpoints every other session. *)
let test_checkpoint_write_fails () =
  let dir = Filename.temp_dir "altune-serve" "" in
  let bad = Filename.concat (Filename.concat dir "missing") "a.ck.json" in
  let good = Filename.concat dir "b.ck.json" in
  let s = server () in
  let request line =
    match Protocol.response_of_line (Server.handle_line s line) with
    | Ok r -> r.Protocol.r_result
    | Error e -> Alcotest.failf "reply unparseable: %s" e
  in
  List.iter
    (fun (name, path) ->
      ignore (ok (Server.handle s (open_req ~checkpoint:path name "hessian")));
      ignore
        (ok (Server.handle s (Protocol.Step { session = name; iterations = 1 }))))
    [ ("a", bad); ("b", good) ];
  ignore (err (request {|{"id":1,"req":"checkpoint","session":"a"}|}));
  ignore (ok (request {|{"id":2,"req":"stats"}|}));
  (match ok (request {|{"id":3,"req":"shutdown"}|}) with
  | Protocol.R_shutdown { checkpointed } ->
      Alcotest.(check (list (pair string string)))
        "only the writable session" [ ("b", good) ] checkpointed
  | _ -> Alcotest.fail "expected a shutdown reply");
  Alcotest.(check bool) "its file exists" true (Sys.file_exists good);
  Sys.remove good;
  Unix.rmdir dir

(* --- Readers never raise ---------------------------------------------------- *)

(* Keys and values of the real documents, so that random values often
   get past the first field a decoder reads. *)
let vocab =
  [ "req"; "open"; "tick"; "session"; "bench"; "hessian"; "id"; "ok"; "reply";
    "stepped"; "error"; "version"; "state"; "cost"; "obs"; "run"; "seq";
    "kind"; "eval"; "tree"; "0000000000000000" ]

(* A JSON value at most four levels deep. *)
let json_gen =
  let open QCheck.Gen in
  let word = oneof [ oneofl vocab; string_size ~gen:printable (int_bound 6) ] in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (oneof [ small_signed_int; int ]);
        map (fun f -> Json.Float f) float;
        map (fun s -> Json.String s) word;
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        let sub g = list_size (int_bound 4) g in
        let inner = self (depth - 1) in
        frequency
          [
            (2, leaf);
            (1, map (fun l -> Json.List l) (sub inner));
            (1, map (fun kvs -> Json.Obj kvs) (sub (pair word inner)));
          ])
    4

(* Every decoder of outside input, on one value. *)
let decode_all j =
  ignore (Checkpoint.of_json j);
  ignore (Events.of_json j);
  ignore (Protocol.request_of_json j);
  ignore (Protocol.response_of_line (Json.to_string j));
  true

let prop_random_values_decode =
  QCheck.Test.make ~name:"decoders never raise on random values" ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    decode_all

(* The values inside [v], each as its path of member or element
   indices from the root. *)
let rec paths v =
  let children =
    match v with
    | Json.Obj kvs -> List.map snd kvs
    | Json.List ws -> ws
    | _ -> []
  in
  List.concat
    (List.mapi (fun i w -> [ i ] :: List.map (List.cons i) (paths w)) children)

(* [v] with the value at [path] replaced by [x]. *)
let rec mutate path x v =
  match (path, v) with
  | i :: rest, Json.Obj kvs ->
      Json.Obj
        (List.mapi
           (fun j (k, w) -> (k, if j = i then mutate rest x w else w))
           kvs)
  | i :: rest, Json.List ws ->
      Json.List (List.mapi (fun j w -> if j = i then mutate rest x w else w) ws)
  | _ -> x

(* Valid documents of each kind the decoders read: a checkpoint, one
   learner event of each kind, every sample request and response. *)
let valid_documents =
  lazy
    (let checkpoint =
       with_ck_file (fun path ->
           let run =
             Tune_run.start ~pool:(Lazy.force pool1) (Spapt.create "hessian")
               { faulty_spec with budget = Some 900.0 }
           in
           ignore (Tune_run.step run ~iterations:6);
           ignore (ok (Tune_run.save run ~path));
           match
             Json.of_string (In_channel.with_open_bin path In_channel.input_all)
           with
           | Ok j -> j
           | Error e -> Alcotest.fail e)
     in
     let (), lines =
       Events.with_memory (fun sink ->
           ignore
             (to_end
                (Tune_run.start ~events:sink ~pool:(Lazy.force pool1)
                   (Spapt.create "hessian") faulty_spec)))
     in
     let events =
       List.filter_map
         (fun line -> Result.to_option (Json.of_string line))
         lines
     in
     let kind j = Json.member "kind" j in
     let first_of_kind =
       List.fold_left
         (fun seen j ->
           if List.exists (fun e -> kind e = kind j) seen then seen
           else j :: seen)
         [] events
     in
     let with_paths docs =
       Array.of_list (List.map (fun d -> (d, Array.of_list (paths d))) docs)
     in
     Array.map with_paths
       [|
         [ checkpoint ];
         first_of_kind;
         List.map Protocol.request_to_json sample_requests;
         List.map Protocol.response_to_json sample_responses;
       |])

let prop_mutated_documents_decode =
  QCheck.Test.make
    ~name:"decoders never raise on a document with one field replaced"
    ~count:1000
    QCheck.(triple small_nat pos_int (make ~print:Json.to_string json_gen))
    (fun (doc, field, x) ->
      let docs = Lazy.force valid_documents in
      let kind = docs.(doc mod Array.length docs) in
      let d, paths = kind.(doc / Array.length docs mod Array.length kind) in
      decode_all (mutate paths.(field mod Array.length paths) x d))

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

(* --- Transports ------------------------------------------------------------ *)

(* The script transport runs the shared request loop, which answers a
   final line that has no newline. *)
let test_script_final_line () =
  let path = Filename.temp_file "altune-script" ".jsonl" in
  let out = Filename.temp_file "altune-script" ".out" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ path; out ])
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "{\"id\":1,\"req\":\"stats\"}\n{\"id\":2,\"req\":\"stats\"}";
      close_out oc;
      let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
      Daemon.serve_script (server ()) ~path ~output:fd;
      Unix.close fd;
      let ids =
        List.map
          (fun line ->
            match Protocol.response_of_line line with
            | Ok r -> r.Protocol.r_id
            | Error e -> Alcotest.failf "reply unparseable: %s" e)
          (read_lines out)
      in
      Alcotest.(check (list (option int))) "one reply per line"
        [ Some 1; Some 2 ] ids)

(* A reader that goes away ends the stream like end of input: the reply
   write fails with EPIPE instead of killing the process with SIGPIPE,
   and the shutdown still checkpoints the session. *)
let test_reader_gone () =
  let dir = Filename.temp_dir "altune-pipe" "" in
  let ck = Filename.concat dir "a.ck.json" in
  let script = Filename.concat dir "script.jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let s = server () in
      ignore (ok (Server.handle s (open_req ~checkpoint:ck "a" "hessian")));
      ignore
        (ok (Server.handle s (Protocol.Step { session = "a"; iterations = 2 })));
      Out_channel.with_open_bin script (fun oc ->
          output_string oc "{\"id\":1,\"req\":\"stats\"}\n");
      let r, w = Unix.pipe () in
      Unix.close r;
      Fun.protect
        ~finally:(fun () -> Unix.close w)
        (fun () -> Daemon.serve_script s ~path:script ~output:w);
      Alcotest.(check bool) "server stopped" true (Server.stopped s);
      Alcotest.(check bool) "shutdown checkpoint written" true
        (Sys.file_exists ck))

(* Poll [ready] every 10 ms for at most [within] seconds. *)
let wait_for ?(within = 10.0) what ready =
  let deadline = Unix.gettimeofday () +. within in
  let rec go () =
    if not (ready ()) then
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "gave up waiting for %s" what
      else begin
        Unix.sleepf 0.01;
        go ()
      end
  in
  go ()

(* The first line [fd] delivers, read for at most [within] seconds. *)
let read_reply ?(within = 10.0) fd =
  let deadline = Unix.gettimeofday () +. within in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let rec go () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> Buffer.sub buf 0 i
    | None -> (
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then Alcotest.fail "no reply in time";
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> go ()
        | _ ->
            let n = Unix.read fd chunk 0 (Bytes.length chunk) in
            if n = 0 then Alcotest.fail "connection closed without a reply";
            Buffer.add_subbytes buf chunk 0 n;
            go ())
  in
  go ()

(* A client that hangs up with its reply unread ends its own connection
   only: the daemon survives it (no SIGPIPE death), serves the next
   client, and still stops gracefully, removing its socket file. *)
let test_socket_client_hangup () =
  let dir = Filename.temp_dir "altune-socket" "" in
  let path = Filename.concat dir "serve.sock" in
  let stop = Daemon.make_stop () in
  let finished = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (fun () -> Daemon.serve_socket ~stop (server ()) ~path))
  in
  let stop_daemon () =
    Atomic.set stop true;
    wait_for "the daemon to return" (fun () -> Atomic.get finished);
    Domain.join daemon
  in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  let send fd line =
    let s = line ^ "\n" in
    ignore (Unix.write_substring fd s 0 (String.length s))
  in
  Fun.protect
    ~finally:(fun () ->
      if not (Atomic.get stop) then stop_daemon ();
      Unix.rmdir dir)
    (fun () ->
      wait_for "the socket file" (fun () -> Sys.file_exists path);
      let c1 = connect () in
      send c1 {|{"id":1,"req":"stats_full"}|};
      Unix.close c1;
      let c2 = connect () in
      send c2 {|{"id":2,"req":"stats"}|};
      let reply = read_reply c2 in
      Unix.close c2;
      (match Protocol.response_of_line reply with
      | Ok r ->
          Alcotest.(check (option int)) "the second client's reply" (Some 2)
            r.Protocol.r_id
      | Error e -> Alcotest.failf "reply unparseable: %s" e);
      stop_daemon ();
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists path))

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
          Alcotest.test_case "open refusals keep their texts" `Quick
            test_open_refusals;
          QCheck_alcotest.to_alcotest prop_random_values_decode;
          QCheck_alcotest.to_alcotest prop_mutated_documents_decode;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "admission control" `Quick test_admission;
          Alcotest.test_case "checkpoint rules" `Quick test_checkpoint_rules;
          Alcotest.test_case "graceful shutdown" `Quick test_shutdown;
          Alcotest.test_case "a failed checkpoint write is an error reply"
            `Quick test_checkpoint_write_fails;
          Alcotest.test_case "live learner, no replays" `Quick
            test_live_learner;
          Alcotest.test_case "one event stream per session" `Quick
            test_session_events;
          Alcotest.test_case "counts equal a recount" `Quick
            test_counts_equal_recount;
        ] );
      ( "memo",
        [
          Alcotest.test_case "cross-session accounting" `Quick
            test_memo_accounting;
          Alcotest.test_case "one instance per kernel" `Quick
            test_shared_instance;
          Alcotest.test_case "closed sessions keep only their view" `Quick
            test_closed_session;
          QCheck_alcotest.to_alcotest prop_lookups_multiset;
        ] );
      ( "tune run",
        [
          Alcotest.test_case "resume from file under faults" `Quick
            test_tune_run_resume_under_faults;
          Alcotest.test_case "served checkpoint resumes under faults" `Quick
            test_session_checkpoint_under_faults;
          Alcotest.test_case "overrides resume bit for bit" `Quick
            test_overrides_resume;
          Alcotest.test_case "progress agrees with state and outcome" `Quick
            test_progress_agrees;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "errors land in the failure ledger" `Quick
            test_failure_ledger;
        ] );
      ( "transport",
        [
          Alcotest.test_case "script's final line without newline" `Quick
            test_script_final_line;
          Alcotest.test_case "socket survives a client hang-up" `Quick
            test_socket_client_hangup;
          Alcotest.test_case "a gone reader ends the stream" `Quick
            test_reader_gone;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "transcript identical at jobs=1 and jobs=4" `Slow
            test_transcript_across_jobs;
        ] );
    ]
