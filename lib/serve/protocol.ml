module Json = Altune_obs.Json

type open_params = {
  o_session : string;
  o_bench : string;
  o_scale : string;
  o_seed : int;
  o_fault : string option;
  o_budget : float option;
  o_n_max : int option;
  o_checkpoint : string option;
}

type request =
  | Open of open_params
  | Step of { session : string; iterations : int }
  | Tick of { iterations : int }
  | Status of { session : string }
  | Checkpoint of { session : string; path : string option }
  | Close of { session : string }
  | Stats
  | Stats_full
  | Prom
  | Shutdown

type session_state = Queued | Live | Done | Closed

type session_view = {
  v_session : string;
  v_state : session_state;
  v_position : int option;
  v_iteration : int;
  v_examples : int;
  v_observations : int;
  v_cost_s : float;
  v_rmse : float option;
}

type memo_stats = {
  m_lookups : int;
  m_entries : int;
  m_hits : int;
  m_shared_keys : int;
  m_cross_hits : int;
}

type server_stats = {
  s_opened : int;
  s_live : int;
  s_queued : int;
  s_done : int;
  s_closed : int;
  s_max_live : int;
  s_max_queue : int;
  s_memo : memo_stats;
}

type reply =
  | R_session of session_view
  | R_tick of session_view list
  | R_stats of server_stats
  | R_stats_full of Json.t
  | R_prom of string
  | R_checkpoint of { session : string; path : string; iteration : int }
  | R_close of { session : string; admitted : string list }
  | R_shutdown of { checkpointed : (string * string) list }

type response = { r_id : int option; r_result : (reply, string) result }

(* --- Requests --------------------------------------------------------- *)

let opt name f = function None -> [] | Some v -> [ (name, f v) ]

let request_to_json ?id req =
  let id_field = opt "id" (fun i -> Json.Int i) id in
  let fields =
    match req with
    | Open p ->
        [ ("req", Json.String "open"); ("session", Json.String p.o_session);
          ("bench", Json.String p.o_bench); ("scale", Json.String p.o_scale);
          ("seed", Json.Int p.o_seed) ]
        @ opt "fault" (fun s -> Json.String s) p.o_fault
        @ opt "budget" (fun b -> Json.Float b) p.o_budget
        @ opt "n_max" (fun n -> Json.Int n) p.o_n_max
        @ opt "checkpoint" (fun s -> Json.String s) p.o_checkpoint
    | Step { session; iterations } ->
        [ ("req", Json.String "step"); ("session", Json.String session);
          ("iterations", Json.Int iterations) ]
    | Tick { iterations } ->
        [ ("req", Json.String "tick"); ("iterations", Json.Int iterations) ]
    | Status { session } ->
        [ ("req", Json.String "status"); ("session", Json.String session) ]
    | Checkpoint { session; path } ->
        [ ("req", Json.String "checkpoint"); ("session", Json.String session) ]
        @ opt "path" (fun s -> Json.String s) path
    | Close { session } ->
        [ ("req", Json.String "close"); ("session", Json.String session) ]
    | Stats -> [ ("req", Json.String "stats") ]
    | Stats_full -> [ ("req", Json.String "stats_full") ]
    | Prom -> [ ("req", Json.String "prom") ]
    | Shutdown -> [ ("req", Json.String "shutdown") ]
  in
  Json.Obj (id_field @ fields)

let request_to_line ?id req = Json.to_string (request_to_json ?id req)

let ( let* ) = Result.bind

let request_of_json j =
  match j with
  | Json.Obj _ -> (
      let* id = Json.opt "id" Json.int j in
      let* kind = Json.req "req" Json.string j in
      let* req =
        match kind with
        | "open" ->
            let* o_session = Json.req "session" Json.string j in
            let* o_bench = Json.req "bench" Json.string j in
            let* scale = Json.opt "scale" Json.string j in
            let* seed = Json.opt "seed" Json.int j in
            let* o_fault = Json.opt "fault" Json.string j in
            let* o_budget = Json.opt "budget" Json.number j in
            let* o_n_max = Json.opt "n_max" Json.int j in
            let* o_checkpoint = Json.opt "checkpoint" Json.string j in
            Ok
              (Open
                 {
                   o_session;
                   o_bench;
                   o_scale = Option.value scale ~default:"smoke";
                   o_seed = Option.value seed ~default:42;
                   o_fault;
                   o_budget;
                   o_n_max;
                   o_checkpoint;
                 })
        | "step" ->
            let* session = Json.req "session" Json.string j in
            let* n = Json.opt "iterations" Json.int j in
            Ok (Step { session; iterations = Option.value n ~default:1 })
        | "tick" ->
            let* n = Json.opt "iterations" Json.int j in
            Ok (Tick { iterations = Option.value n ~default:1 })
        | "status" ->
            let* session = Json.req "session" Json.string j in
            Ok (Status { session })
        | "checkpoint" ->
            let* session = Json.req "session" Json.string j in
            let* path = Json.opt "path" Json.string j in
            Ok (Checkpoint { session; path })
        | "close" ->
            let* session = Json.req "session" Json.string j in
            Ok (Close { session })
        | "stats" -> Ok Stats
        | "stats_full" -> Ok Stats_full
        | "prom" -> Ok Prom
        | "shutdown" -> Ok Shutdown
        | other -> Error (Printf.sprintf "unknown request %S" other)
      in
      Ok (id, req))
  | _ -> Error "request must be a JSON object"

let request_of_line line =
  match Json.of_string line with
  | Error e -> Error (None, "malformed JSON: " ^ e)
  | Ok j -> (
      (* Even when the request itself is bad, echo any usable id so the
         client can correlate the error with its request. *)
      let id = Option.bind (Json.member "id" j) Json.to_int_opt in
      match request_of_json j with
      | Ok r -> Ok r
      | Error e -> Error (id, e))

(* --- Responses -------------------------------------------------------- *)

let state_to_string = function
  | Queued -> "queued"
  | Live -> "live"
  | Done -> "done"
  | Closed -> "closed"

let state_of_string = function
  | "queued" -> Ok Queued
  | "live" -> Ok Live
  | "done" -> Ok Done
  | "closed" -> Ok Closed
  | s -> Error (Printf.sprintf "unknown session state %S" s)

let view_fields v =
  [ ("session", Json.String v.v_session);
    ("state", Json.String (state_to_string v.v_state)) ]
  @ opt "position" (fun p -> Json.Int p) v.v_position
  @ [ ("iteration", Json.Int v.v_iteration);
      ("examples", Json.Int v.v_examples);
      ("observations", Json.Int v.v_observations);
      ("cost_s", Json.Float v.v_cost_s) ]
  @ opt "rmse" (fun r -> Json.Float r) v.v_rmse

let memo_to_json m =
  Json.Obj
    [ ("lookups", Json.Int m.m_lookups); ("entries", Json.Int m.m_entries);
      ("hits", Json.Int m.m_hits); ("shared_keys", Json.Int m.m_shared_keys);
      ("cross_hits", Json.Int m.m_cross_hits) ]

let reply_fields = function
  | R_session v -> (("reply", Json.String "session") :: view_fields v)
  | R_tick vs ->
      [ ("reply", Json.String "tick");
        ("stepped", Json.List (List.map (fun v -> Json.Obj (view_fields v)) vs))
      ]
  | R_stats s ->
      [ ("reply", Json.String "stats"); ("opened", Json.Int s.s_opened);
        ("live", Json.Int s.s_live); ("queued", Json.Int s.s_queued);
        ("done", Json.Int s.s_done); ("closed", Json.Int s.s_closed);
        ("max_live", Json.Int s.s_max_live);
        ("max_queue", Json.Int s.s_max_queue);
        ("memo", memo_to_json s.s_memo) ]
  | R_stats_full data -> [ ("reply", Json.String "stats_full"); ("data", data) ]
  | R_prom text -> [ ("reply", Json.String "prom"); ("text", Json.String text) ]
  | R_checkpoint { session; path; iteration } ->
      [ ("reply", Json.String "checkpoint"); ("session", Json.String session);
        ("path", Json.String path); ("iteration", Json.Int iteration) ]
  | R_close { session; admitted } ->
      [ ("reply", Json.String "close"); ("session", Json.String session);
        ("admitted", Json.List (List.map (fun s -> Json.String s) admitted))
      ]
  | R_shutdown { checkpointed } ->
      [ ("reply", Json.String "shutdown");
        ( "checkpointed",
          Json.List
            (List.map
               (fun (s, p) ->
                 Json.Obj
                   [ ("session", Json.String s); ("path", Json.String p) ])
               checkpointed) ) ]

let response_to_json r =
  let id_field = opt "id" (fun i -> Json.Int i) r.r_id in
  match r.r_result with
  | Ok reply ->
      Json.Obj (id_field @ [ ("ok", Json.Bool true) ] @ reply_fields reply)
  | Error e ->
      Json.Obj
        (id_field @ [ ("ok", Json.Bool false); ("error", Json.String e) ])

let response_to_line r = Json.to_string (response_to_json r)

let view_of_json j =
  let* v_session = Json.req "session" Json.string j in
  let* state_s = Json.req "state" Json.string j in
  let* v_state = state_of_string state_s in
  let* v_position = Json.opt "position" Json.int j in
  let* v_iteration = Json.req "iteration" Json.int j in
  let* v_examples = Json.req "examples" Json.int j in
  let* v_observations = Json.req "observations" Json.int j in
  let* v_cost_s = Json.req "cost_s" Json.number j in
  let* v_rmse = Json.opt "rmse" Json.number j in
  Ok
    {
      v_session;
      v_state;
      v_position;
      v_iteration;
      v_examples;
      v_observations;
      v_cost_s;
      v_rmse;
    }

let memo_of_json j =
  let* m_lookups = Json.req "lookups" Json.int j in
  let* m_entries = Json.req "entries" Json.int j in
  let* m_hits = Json.req "hits" Json.int j in
  let* m_shared_keys = Json.req "shared_keys" Json.int j in
  let* m_cross_hits = Json.req "cross_hits" Json.int j in
  Ok { m_lookups; m_entries; m_hits; m_shared_keys; m_cross_hits }

let reply_of_json j =
  let* kind = Json.req "reply" Json.string j in
  match kind with
  | "session" ->
      let* v = view_of_json j in
      Ok (R_session v)
  | "tick" ->
      let* vs = Json.list "stepped" view_of_json j in
      Ok (R_tick vs)
  | "stats" ->
      let* s_opened = Json.req "opened" Json.int j in
      let* s_live = Json.req "live" Json.int j in
      let* s_queued = Json.req "queued" Json.int j in
      let* s_done = Json.req "done" Json.int j in
      let* s_closed = Json.req "closed" Json.int j in
      let* s_max_live = Json.req "max_live" Json.int j in
      let* s_max_queue = Json.req "max_queue" Json.int j in
      let* s_memo = Json.obj "memo" memo_of_json j in
      Ok
        (R_stats
           {
             s_opened;
             s_live;
             s_queued;
             s_done;
             s_closed;
             s_max_live;
             s_max_queue;
             s_memo;
           })
  | "stats_full" -> (
      match Json.member "data" j with
      | Some data -> Ok (R_stats_full data)
      | None -> Error "missing \"data\" field")
  | "prom" ->
      let* text = Json.req "text" Json.string j in
      Ok (R_prom text)
  | "checkpoint" ->
      let* session = Json.req "session" Json.string j in
      let* path = Json.req "path" Json.string j in
      let* iteration = Json.req "iteration" Json.int j in
      Ok (R_checkpoint { session; path; iteration })
  | "close" ->
      let* session = Json.req "session" Json.string j in
      let* admitted = Json.list "admitted" (Json.item Json.string) j in
      Ok (R_close { session; admitted })
  | "shutdown" ->
      let* checkpointed =
        Json.list "checkpointed"
          (fun item ->
            let* s = Json.req "session" Json.string item in
            let* p = Json.req "path" Json.string item in
            Ok (s, p))
          j
      in
      Ok (R_shutdown { checkpointed })
  | other -> Error (Printf.sprintf "unknown reply %S" other)

let response_of_line line =
  match Json.of_string line with
  | Error e -> Error ("malformed JSON: " ^ e)
  | Ok j -> (
      let* r_id = Json.opt "id" Json.int j in
      let* ok = Json.req "ok" Json.bool j in
      if ok then
        let* reply = reply_of_json j in
        Ok { r_id; r_result = Ok reply }
      else
        let* e = Json.req "error" Json.string j in
        Ok { r_id; r_result = Error e })
