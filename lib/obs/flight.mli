(** Bounded flight recorder: keep tracing permanently on in a long-lived
    process without unbounded output.

    A recorder retains the last [capacity] emitted trace lines {e per
    domain} in fixed ring buffers — older lines are overwritten, memory
    use is bounded by [capacity * domains], and recording is one array
    store (it runs under {!Trace}'s sink lock, so no extra
    synchronization is needed on the hot path).  {!dump} returns the
    retained lines grouped by domain id (ascending) in emission order
    within each domain, so the output is reproducible given the same
    per-domain histories regardless of how emission interleaved.

    Typical wiring: [Flight.install recorder] makes it the process-wide
    trace sink; the daemon dumps on SIGUSR1 and appends a dump to the
    failure ledger when a session errors. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] lines retained per domain (default 256, min 1). *)

val capacity : t -> int

val record : t -> string -> unit
(** Append one line to the calling domain's ring.  Callers outside a
    [Trace] sink must serialize externally. *)

val install : t -> unit
(** Install the recorder as the {!Trace} sink (replacing any previous
    sink). *)

val dump : t -> string list
(** Retained lines: domains in ascending id order, each domain's lines
    oldest-first.  Does not clear. *)
