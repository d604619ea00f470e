(** Transports for the tuning server: a script file, stdio, and a Unix
    socket, all speaking the newline-delimited {!Protocol}.

    All three run one request loop over a file descriptor: it reads
    lines, skips blank ones, answers each with one response line
    written straight to the output descriptor (no channel buffers it),
    and at end of input also answers a final line that has no newline.
    So a script and the same bytes piped to stdin get the same
    transcript.

    A reader that goes away ends its stream only: every transport
    ignores SIGPIPE while it serves (restoring the old disposition on
    return), so a write to a closed pipe or socket fails with EPIPE, and
    the loop treats a failed write like end of input.  No reply is left
    buffered for a later flush to fail on.

    Every transport guarantees a graceful exit: on end of input, a gone
    reader, a [shutdown] request, or a SIGINT/SIGTERM (when handlers are
    installed), the server's {!Server.graceful_stop} runs —
    checkpointing every live session that has progress and a path, and
    shutting the pool down — before it returns, so the caller can flush
    observability sinks and exit 0.  A session checkpointed this way
    resumes with [altune resume] to the outcome the uninterrupted
    session would reach.

    {b Telemetry pump.}  The loop also drives the server's live
    telemetry between requests and on idle polls: a snapshot record is
    appended to the configured series every {!Server.snapshot_every}
    seconds, and a pending SIGUSR1 (the [usr1] flag) dumps the flight
    recorder to [flight_dump].  Neither writes a byte to the protocol
    stream. *)

val make_stop : unit -> bool Atomic.t
(** A fresh stop flag, initially false. *)

val make_flag : unit -> bool Atomic.t
(** A fresh signal flag (e.g. for SIGUSR1), initially false. *)

val install_signal_handlers : ?usr1:bool Atomic.t -> bool Atomic.t -> unit
(** Route SIGINT and SIGTERM to setting the stop flag, and — when
    [usr1] is given — SIGUSR1 to setting that flag.  The serve loops
    poll both between requests; nothing extra is written to the
    protocol stream on a signal. *)

val serve_script :
  ?usr1:bool Atomic.t ->
  ?flight_dump:string ->
  Server.t ->
  path:string ->
  output:Unix.file_descr ->
  unit
(** Serve the request lines of the file at [path], writing the
    responses to [output].  Stops early after a [shutdown] request, or
    when a write to [output] fails.
    Deterministic: same script, same server config => same output
    bytes, at any [jobs] — snapshots and flight dumps go to their own
    files, never to [output]. *)

val serve_stdio :
  ?stop:bool Atomic.t -> ?usr1:bool Atomic.t -> ?flight_dump:string ->
  Server.t -> unit
(** Serve stdin/stdout, polling [stop] between reads so signals
    interrupt a quiet connection promptly. *)

val serve_socket :
  ?stop:bool Atomic.t -> ?usr1:bool Atomic.t -> ?flight_dump:string ->
  Server.t -> path:string -> unit
(** Listen on a Unix domain socket at [path] (replacing any stale
    socket file), serving one client connection at a time; sessions
    persist across connections.  A client that hangs up ends its own
    connection only: a failed read or write on a connection closes it
    and goes back to accepting.  Returns once [stop] is set or a client
    sent [shutdown]; removes the socket file on the way out. *)
