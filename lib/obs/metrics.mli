(** Process-wide metrics registry: counters, gauges and quantile
    sketches with lock-free atomic updates, safe under
    {!Altune_exec.Pool} parallelism.  Every latency is a sketch,
    including the pool's ["pool.queue_wait_seconds"] and
    ["pool.task_seconds"].

    Instruments are registered by name; asking for an existing name
    returns the same instrument (so a library and its caller can share
    ["pool.steals"] without plumbing).  Registering a name as two
    different kinds raises [Invalid_argument].

    Updates never allocate except in a sketch's float CAS loops (sum,
    min, max); reads ({!snapshot}, {!render}) are O(instruments) and
    safe at any time. *)

type counter
type gauge
type sketch

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit

val sketch : string -> sketch
(** A {!Quantile} sketch as a registry instrument. *)

val record : sketch -> float -> unit
(** Add one value to the sketch (latency in seconds, by convention). *)

val sketch_data : sketch -> Quantile.t
(** The live underlying sketch. *)

val snapshot : unit -> Json.t
(** All instruments as one JSON object (sorted by name), e.g. for
    embedding in a trace.  Sketches render as their
    {!Quantile.summary_json}. *)

val render : unit -> string
(** Human-readable dump, sorted by name, for [--metrics]: a sketch
    prints its count, p50, p99 and max. *)

val render_prom : unit -> string
(** Prometheus text exposition (format 0.0.4): counters and gauges as
    single samples, sketches as summaries with [quantile] labels plus
    [_sum]/[_count].  Dots in names become underscores. *)
