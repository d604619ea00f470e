(** Structured learner-introspection telemetry.

    Where {!Trace} records {e when} things happened (wall-time spans),
    this module records {e what the active learner decided and believed}:
    one JSONL event per loop decision — the chosen candidate with its
    selection score and fresh-vs-revisit flag, and per evaluation point
    the held-out RMSE, the reference-set mean predictive variance, and
    the dynamic-tree posterior's shape (leaf count, depth histogram,
    per-dimension split frequencies — a sensitivity proxy in the spirit
    of Gramacy & Taddy's dynamic-tree variable selection).

    The sink and the stream are values, passed down to the code that
    emits.  A {!sink} buffers one event file's lines; {!with_file} and
    {!with_memory} create one for the length of their body.  A {!stream}
    is one learner run's run key and sequence counter on a sink: each
    run is given its own, and a run given none emits nothing.

    Determinism: emission carries no clocks and consumes no randomness,
    and the sink writes its events sorted by (run key, per-run sequence
    number), so an event file is {e byte-identical at any [--jobs]
    count} — unlike a trace, whose line order is real interleaving.
    Experiment output is the same with or without a sink.

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
(** One event: the run it belongs to (its {!stream}'s key), its
    position in that run's stream, and the payload. *)

(** {1 Emission} *)

type sink
(** One event file's buffer.  Domain-safe: streams on it may emit from
    several domains at once. *)

type stream
(** One learner run's events: a run key and its sequence counter, on a
    sink.  A run advanced in several steps, on any domains, keeps one
    stream and so records one contiguous sequence; emit on a stream from
    one domain at a time.  Every run on a sink needs a distinct key, or
    their streams interleave under one sort key. *)

val stream : sink -> string -> stream
(** [stream sink key] is a fresh stream for run [key], at sequence 0. *)

val emit : stream -> kind -> unit
(** Record one event as the stream's next. *)

val with_file : string -> ?manifest:Json.t -> (sink -> 'a) -> 'a
(** [with_file path f] opens [path] (truncating), writes [manifest] as
    an unsorted header line, runs [f] on a fresh sink and writes the
    sink's lines sorted on the way out, whether [f] returns or raises.
    Events emitted after [f] returns are dropped. *)

val with_memory : (sink -> 'a) -> 'a * string list
(** Record into memory; returns the sorted lines (for tests). *)

(** {1 Reading} *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
(** Decode one learner event through {!Json}'s field readers.  Every
    error starts ["learner event: "] and names the field, e.g.
    [learner event: tree: missing or non-number "mean_leaves" field]. *)

type file = { manifest : Manifest.t option; events : t list }

val of_lines : string list -> (file, string) result
(** Parse JSONL lines.  Span lines and unknown ["ev"] kinds are skipped
    (an events file and a trace file can be concatenated); a malformed
    line is an error. *)
