(** The multi-tenant tuning server: session store, admission control,
    and cross-session evaluation sharing.

    One server owns one {!Altune_exec.Pool} and one
    {!Altune_spapt.Spapt.t} per kernel, created at the first open of
    that kernel and shared by every session tuning it.  The instance's
    compute-once evaluation store is the cross-session cache: identical
    configurations demanded by different tenants are computed once (and
    again only if the bounded store evicted them).  Each session reports
    its evaluations through a [note] callback ({!Session.create}), which
    feeds the lookup accounting of {!memo_stats} ({!Lookups}) and the
    [serve.memo_wait_seconds] sketch.

    {b Admission policy.}  [open] admits a session immediately while
    fewer than [max_live] sessions are live, queues it FIFO while the
    queue is shorter than [max_queue], and rejects it otherwise (or when
    its budget exceeds [budget_cap]).  Slots free when a session
    completes or is closed; the queue head is promoted at the end of the
    request that freed the slot — a deterministic point, so the
    admission sequence is a pure function of the request sequence.

    {b Determinism.}  Replies carry only simulated quantities, and the
    lookup accounting is that of the multiset of (key, session) lookups,
    with the lowest-admission-order toucher as each key's canonical
    owner, so every reported figure is independent of domain scheduling:
    a fixed request script produces byte-identical responses at any
    [jobs] count. *)

type config = {
  jobs : int;  (** Domains in the server's pool (>= 1). *)
  max_live : int;  (** Live-session cap (admission control). *)
  max_queue : int;  (** Queued-session cap beyond the live ones. *)
  budget_cap : float option;
      (** Reject sessions asking for a larger simulated-cost budget. *)
  checkpoint_dir : string option;
      (** Default directory for shutdown checkpoints of sessions opened
          without an explicit checkpoint path. *)
  snapshot_path : string option;
      (** Rotating JSONL telemetry time series ({!snapshot} appends to
          it); [None] disables the pump entirely. *)
  snapshot_every : float;
      (** Pump cadence in seconds, honored by the daemon's poll loops
          (the server itself only snapshots when asked). *)
  flight : Altune_obs.Flight.t option;
      (** Flight recorder whose retained spans are dumped into failure
          ledger records and by {!flight_dump_to}. *)
  ledger_path : string option;
      (** Failure ledger (append-only JSONL): every request that draws
          an error reply is recorded with the offending line and the
          flight recorder's contents. *)
}

val default_config : config
(** [jobs = 1], [max_live = 8], [max_queue = 64], no budget cap, no
    checkpoint directory, telemetry off ([snapshot_path = None],
    [snapshot_every = 10.0], no flight recorder, no ledger). *)

type t

val create : ?events:Altune_obs.Events.sink -> config -> t
(** A server with no sessions and its own pool.  With [events] (the
    CLI's [--events] sink), every session streams its learner events on
    it under the key [serve/<name>]. *)

val handle : t -> Protocol.request -> (Protocol.reply, string) result
(** Dispatch one request.  Requests are handled one at a time; [Tick]
    fans the live sessions out over the server's pool internally. *)

val handle_line : t -> string -> string
(** Parse one request line, dispatch it, and render the response line
    (no trailing newline).  Malformed input and handler exceptions both
    become error responses — the server never dies on bad input. *)

val graceful_stop : t -> (string * string) list
(** Checkpoint every live session that has progress and a checkpoint
    path (explicit, or derived from [checkpoint_dir]), refuse new work,
    and shut the pool down.  Returns the (session, path) pairs of the
    checkpoints written, in admission order: a session whose file cannot
    be written is left out, and the others are still written.
    Idempotent; also invoked by the [Shutdown] request. *)

val stopped : t -> bool
val stats : t -> Protocol.server_stats
val memo_stats : t -> Protocol.memo_stats

(** {2 Live telemetry}

    The server always maintains latency sketches (per-request wire time,
    per-step learner time, queue wait, per-evaluation time) and live/queued
    gauges in the process-wide {!Altune_obs.Metrics} registry.  They
    never touch the protocol stream: response bytes are identical with
    telemetry on or off, at any job count. *)

val snapshot : t -> unit
(** Append one snapshot record — counters, gauges, sketch summaries,
    [Gc.quick_stat] deltas since the previous snapshot, queue depth,
    memo hit rate, stamped with the run manifest, every object's keys
    sorted — to [snapshot_path]'s rotating series.  No-op without a
    series or once the server has stopped. *)

val snapshot_every : t -> float
(** The configured pump cadence (for the transport loops). *)

val snapshots_on : t -> bool
(** Whether a snapshot series is configured. *)

val stats_full_json : t -> Altune_obs.Json.t
(** The [Stats_full] payload: server stats, full metrics snapshot, GC
    state and uptime as one JSON object. *)

val flight_dump_to : t -> string -> unit
(** Write the flight recorder's retained span lines to a file
    (truncating it); no-op without a recorder.  Wired to SIGUSR1 by the
    daemon loops. *)
