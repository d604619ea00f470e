(** Structured learner-introspection telemetry.

    Where {!Trace} records {e when} things happened (wall-time spans),
    this module records {e what the active learner decided and believed}:
    one JSONL event per loop decision — the chosen candidate with its
    selection score and fresh-vs-revisit flag, and per evaluation point
    the held-out RMSE, the reference-set mean predictive variance, and
    the dynamic-tree posterior's shape (leaf count, depth histogram,
    per-dimension split frequencies — a sensitivity proxy in the spirit
    of Gramacy & Taddy's dynamic-tree variable selection).

    Determinism: emission carries no clocks and consumes no randomness,
    and the sink buffers events and writes them sorted by (run key,
    per-run sequence number), so an event file is {e byte-identical at
    any [--jobs] count} — unlike a trace, whose line order is real
    interleaving.  With no sink installed every operation is a no-op and
    experiment output is untouched.

    Render event files with [altune report]; export them to CSV with
    [altune report --csv]. *)

type tree_stats = {
  mean_leaves : float;
  max_depth : int;
  depth_histogram : int array;
      (** [depth_histogram.(d)] = particles of depth [d]. *)
  split_frequencies : float array;
      (** Per-dimension share of posterior splits (sensitivity proxy). *)
}

type start = {
  plan : string;  (** ["fixed:35"], ["adaptive:35"], ... *)
  strategy : string;  (** ["alc"], ["mackay"], ["random"]. *)
  model : string;  (** Surrogate name. *)
  dim : int;
  pool : int;  (** Training-pool size. *)
  n_max : int;
}

type select = {
  iteration : int;
  config : string;  (** {!Altune_core.Problem.key} of the chosen candidate. *)
  score : float;  (** Its selection score (ALC / variance / random). *)
  revisit : bool;  (** Re-selected an already-visited configuration. *)
  config_obs : int;  (** Its observation count {e before} this visit. *)
  examples : int;  (** Distinct configurations visited so far. *)
  observations : int;  (** Total profiling runs so far. *)
  cost_s : float;  (** Cumulative simulated cost so far. *)
}

type eval = {
  iteration : int;
  examples : int;
  observations : int;
  cost_s : float;
  rmse : float;  (** Held-out RMSE at this evaluation point. *)
  ref_variance : float;
      (** Mean posterior predictive variance over the ALC reference set
          (standardized units) — the quantity ALC drives down. *)
  tree : tree_stats option;  (** [None] for non-tree surrogates. *)
}

type finish = {
  iterations : int;
  examples : int;
  observations : int;
  cost_s : float;
  rmse : float;
}

type fault = {
  config : string;  (** Config key whose profiling attempt failed. *)
  attempt : int;  (** 0-based attempt number at this selection. *)
  fault : string;
      (** ["crash"], ["timeout"], ["corrupt"], or ["dead"] (retries
          exhausted, config excluded from the candidate set). *)
  lost_s : float;  (** Simulated seconds charged for this failure. *)
}
(** One injected-fault occurrence (emitted only under [--fault-spec]). *)

type kind =
  | Start of start
  | Select of select
  | Eval of eval
  | Finish of finish
  | Fault of fault

type t = { run : string; seq : int; kind : kind }
(** One event: the run it belongs to (the {!with_run} key), its position
    in that run's stream, and the payload. *)

(** {1 Emission} *)

val enabled : unit -> bool
(** [true] iff a sink is installed.  The learner guards all event
    construction behind this, so telemetry off costs one atomic load. *)

val emit : kind -> unit
(** Record one event under the current run context.  No-op without a
    sink. *)

val with_run : string -> (unit -> 'a) -> 'a
(** [with_run key f] scopes this domain's run context: events emitted by
    [f] carry [key] and a fresh sequence counter.  Nests; restores the
    previous context afterwards.  Every parallel learner run must get a
    distinct key, or their streams interleave under one sort key. *)

type stream
(** A run context that outlives one scope: a key and its sequence
    counter. *)

val stream : string -> stream
(** A fresh stream for run [key], at sequence 0. *)

val with_stream : stream -> (unit -> 'a) -> 'a
(** {!with_run} on an existing stream: events emitted by [f] continue
    the stream's sequence where its previous scope left it, so a run
    advanced in several scopes (a serve session's steps, on any domains)
    records one contiguous stream.  Scope a stream on one domain at a
    time.  [with_run key f] is [with_stream (stream key) f]. *)

val install : ?on_line:(string -> unit) -> ?close:(unit -> unit) -> unit -> unit
(** Install the process-wide sink.  Lines are delivered to [on_line]
    {e sorted}, all at uninstall time. *)

val uninstall : unit -> unit
(** Sort and flush buffered events, then close.  Idempotent. *)

val with_file : string -> ?manifest:Json.t -> (unit -> 'a) -> 'a
(** [with_file path f] records events of [f] into [path] (truncating),
    with [manifest] as an unsorted header line, flushing sorted on the
    way out whether [f] returns or raises. *)

val with_memory : (unit -> 'a) -> 'a * string list
(** Record into memory; returns the sorted lines (for tests). *)

(** {1 Reading} *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

type file = { manifest : Manifest.t option; events : t list }

val of_lines : string list -> (file, string) result
(** Parse JSONL lines.  Span lines and unknown ["ev"] kinds are skipped
    (an events file and a trace file can be concatenated); a malformed
    line is an error. *)
