(** Hierarchical span tracing with a pluggable, domain-safe JSONL sink.

    A span is one timed region of execution.  Spans nest: the innermost
    open span of the current domain is the parent of the next one, and
    {!current}/{!with_ctx} carry that parentage across domain boundaries
    (the {!Altune_exec.Pool} propagates it into its tasks), so the span
    {e tree} of a traced run is identical at any job count — only the
    timings and the interleaving of emitted lines differ.

    Durations come from the monotonic clock (a
    [clock_gettime(CLOCK_MONOTONIC)] stub), so they are immune to
    wall-clock adjustments.  Each completed span is emitted as one JSON
    line through the installed sink; emission is serialized by a mutex,
    so any [write] function is safe.  With no sink installed every
    operation is a cheap no-op — tracing never changes experiment
    results, it only records when things happened.

    Span lines look like:
    {v
    {"ev":"span","id":12,"parent":3,"name":"learner.profile",
     "phase":"profiling","domain":0,"start":0.001231,"dur":0.000045,
     "attrs":{"run_index":17,"sim_run_s":1.84}}
    v} *)

type attr =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool

type ctx
(** A capturable span context: which span (if any) should become the
    parent of spans opened while the context is active.  Use it to keep
    logical nesting across domains. *)

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds from an arbitrary origin. *)

val enabled : unit -> bool
(** [true] iff a sink is installed.  Use to skip building expensive
    attribute values when tracing is off. *)

val install : ?on_line:(string -> unit) -> ?close:(unit -> unit) -> unit -> unit
(** [install ~on_line ()] makes [on_line] the process-wide sink; it
    receives one JSON line (no trailing newline) per event, serialized
    under the trace lock.  Replaces any previous sink (closing it).
    [close] runs when the sink is uninstalled or replaced. *)

val uninstall : unit -> unit
(** Remove and close the current sink.  Idempotent. *)

val with_file : string -> ?manifest:Json.t -> (unit -> 'a) -> 'a
(** [with_file path f] traces [f] into [path] (truncating it), writing
    [manifest] as the first line when given, and uninstalls the sink
    afterwards, whether [f] returns or raises. *)

val with_memory : (unit -> 'a) -> 'a * string list
(** [with_memory f] traces [f] into memory and returns the emitted lines
    in emission order (for tests). *)

val with_span :
  ?phase:string ->
  ?attrs:(string * attr) list ->
  name:string ->
  (unit -> 'a) ->
  'a
(** [with_span ~name f] times [f] inside a fresh span parented to the
    innermost open span of this domain (or the installed {!ctx}).
    [phase] labels the span for {!Summary} aggregation.  If [f] raises,
    the span is emitted with ["err":true] and the exception re-raised.
    With no sink installed this is just [f ()]. *)

val add_attrs : (string * attr) list -> unit
(** Attach attributes to the innermost span currently open {e on this
    domain} (for values only known mid-span, e.g. a simulated cost).
    No-op without a sink or an open span. *)

val current : unit -> ctx
(** Capture the current parentage for use on another domain. *)

val with_ctx : ctx -> (unit -> 'a) -> 'a
(** [with_ctx ctx f] runs [f] with its span parentage replaced by [ctx],
    restoring the previous parentage afterwards. *)

val emit_json : Json.t -> unit
(** Write one raw line through the sink (e.g. a manifest).  No-op when
    no sink is installed. *)
