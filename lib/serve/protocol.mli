(** Wire protocol of the tuning service: newline-delimited JSON.

    Each request is one JSON object on one line, discriminated by its
    ["req"] field and optionally carrying a client-chosen integer ["id"];
    each response is one JSON object on one line echoing that id, with
    ["ok": true] and a ["reply"]-discriminated payload on success or
    ["ok": false] and an ["error"] string on failure.

    Determinism contract: every quantity a reply carries is a
    {e simulated} quantity (loop iterations, simulated profiling cost,
    held-out RMSE) — never a wall-clock time — so the byte stream of
    responses to a fixed request script is identical at any [--jobs]
    count and on any host. *)

type open_params = {
  o_session : string;  (** Client-chosen session name (must be fresh). *)
  o_bench : string;  (** SPAPT benchmark name. *)
  o_scale : string;  (** Scale label; default ["smoke"]. *)
  o_seed : int;  (** Master seed; default [42]. *)
  o_fault : string option;  (** [Fault.of_string] spec, if injecting. *)
  o_budget : float option;
      (** Per-session simulated-cost budget (extra stop criterion). *)
  o_n_max : int option;  (** Override of the scale's iteration cap. *)
  o_checkpoint : string option;
      (** Where graceful shutdown checkpoints this session. *)
}

type request =
  | Open of open_params
  | Step of { session : string; iterations : int }
      (** Advance one session by [iterations] learner iterations. *)
  | Tick of { iterations : int }
      (** Advance {e every} live session by [iterations], fanned out in
          admission order over the server's domain pool. *)
  | Status of { session : string }
  | Checkpoint of { session : string; path : string option }
  | Close of { session : string }
  | Stats
  | Stats_full
      (** Full telemetry scrape: server stats, metrics snapshot
          (including latency sketches), GC and pool state as one JSON
          payload.  Unlike every other reply this carries wall-clock
          quantities — keep it out of transcripts that are diffed
          across job counts. *)
  | Prom
      (** Prometheus text exposition ({!Altune_obs.Metrics.render_prom})
          as a single string reply — scrape the daemon over the socket
          with no extra listener. *)
  | Shutdown

type session_state = Queued | Live | Done | Closed

type session_view = {
  v_session : string;
  v_state : session_state;
  v_position : int option;  (** 0-based queue position, when queued. *)
  v_iteration : int;  (** Learner loop iterations completed. *)
  v_examples : int;  (** Distinct configurations profiled. *)
  v_observations : int;  (** Total profiling runs. *)
  v_cost_s : float;  (** Cumulative simulated cost, seconds. *)
  v_rmse : float option;  (** Latest held-out RMSE, once evaluated. *)
}

type memo_stats = {
  m_lookups : int;
      (** Sessions' evaluation lookups in the shared per-kernel stores. *)
  m_entries : int;  (** Distinct (kernel, config) keys looked up. *)
  m_hits : int;
      (** [lookups - entries]: lookups of a key already looked up —
          served from the store unless it had evicted the key. *)
  m_shared_keys : int;  (** Keys touched by two or more sessions. *)
  m_cross_hits : int;
      (** Lookups by sessions other than a key's canonical owner (the
          lowest-admission-order session that touched it) — the work
          multi-tenancy saved.  Schedule-independent by construction. *)
}

type server_stats = {
  s_opened : int;  (** Sessions admitted or queued since startup. *)
  s_live : int;  (** Currently live (a gauge, not a cumulative count). *)
  s_queued : int;  (** Current queue depth. *)
  s_done : int;
  s_closed : int;
  s_max_live : int;  (** Live-session capacity — [s_live]'s ceiling. *)
  s_max_queue : int;  (** Queue capacity — [s_queued]'s ceiling. *)
  s_memo : memo_stats;
}

type reply =
  | R_session of session_view
  | R_tick of session_view list  (** Stepped sessions, admission order. *)
  | R_stats of server_stats
  | R_stats_full of Altune_obs.Json.t  (** Opaque telemetry payload. *)
  | R_prom of string
  | R_checkpoint of { session : string; path : string; iteration : int }
  | R_close of { session : string; admitted : string list }
      (** [admitted]: sessions this close promoted from the queue. *)
  | R_shutdown of { checkpointed : (string * string) list }
      (** (session, checkpoint path) pairs, admission order. *)

type response = { r_id : int option; r_result : (reply, string) result }

val request_to_json : ?id:int -> request -> Altune_obs.Json.t
val request_to_line : ?id:int -> request -> string

val request_of_json :
  Altune_obs.Json.t -> (int option * request, string) result

val request_of_line :
  string -> (int option * request, int option * string) result
(** Parse one request line.  On a malformed line the error still carries
    any ["id"] that could be parsed, so the error reply can echo it. *)

val response_to_json : response -> Altune_obs.Json.t
val response_to_line : response -> string
val response_of_line : string -> (response, string) result
