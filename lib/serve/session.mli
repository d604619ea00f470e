(** One tenant's tuning session: a live {!Altune_experiments.Tune_run.t}
    advanced in increments.

    A session is the same run [altune tune] would perform for its
    (benchmark, scale, seed) — same dataset, same learner stream, same
    fault seed, all derived by {!Altune_experiments.Tune_run} — except
    that it runs on the server's instance of its benchmark, which every
    session tuning that kernel shares, and that each of its evaluations
    is reported to the server through the [note] callback given to
    {!create}.  The instance's evaluation store is deterministic per
    configuration, so sharing changes who {e pays} for an evaluation,
    never its value: a served session's learner stream is
    byte-identical to the standalone run's.

    The first step starts the run and the session holds it between
    requests; each step advances it, so a session's steps together run
    the same loop, emit the same events and cost the same surrogate
    updates as one uninterrupted run.  A run that completes (iteration
    cap or cost budget) leaves its final figures, the session drops the
    run and becomes [Done].

    The lifecycle is one value with a case per phase, each holding what
    its phase has: nothing while queued, the run while live (none before
    the first step), the final figures once done, and the figures, if
    any, once closed.  A done or closed session holds no run. *)

type config = {
  name : string;
  run : Altune_experiments.Tune_run.spec;
      (** The run; [n_max] and [budget] are the open request's
          overrides. *)
  checkpoint_path : string option;
      (** Where graceful shutdown checkpoints this session. *)
}

type phase = Protocol.session_state = Queued | Live | Done | Closed

type t

val create :
  ?events:Altune_obs.Events.sink ->
  bench:Altune_spapt.Spapt.t ->
  pool:Altune_exec.Pool.t ->
  note:(int array -> (unit -> float) -> float) ->
  config ->
  t
(** A fresh session in phase [Queued] on [bench], the instance of
    [config.run.bench] the server shares between its sessions.  Heavy
    resources (problem, dataset, fault injector, learner) materialize at
    the first step, so queueing hundreds of sessions is cheap.  [pool]
    is the surrogate's worker pool for its internal parallelism (results
    are identical at any job count).

    [note c eval] wraps each of the learner's evaluations of
    configuration [c] — every call of the problem's [measure] and
    [compile_seconds], but not dataset generation — and must return
    [eval ()]; the server counts and times the lookups there.  It may be
    called from any domain stepping the session.

    With [events], the session's run streams its learner events on that
    sink under the key [serve/<name>]. *)

val config : t -> config
val phase : t -> phase

val admit : t -> unit
(** [Queued] -> [Live].  No-op in any other phase. *)

val close : t -> unit
(** Any phase -> [Closed].  Keeps the run's figures and drops the run
    itself, so a closed session costs only its view. *)

val step : t -> iterations:int -> (unit, string) result
(** Advance a [Live] session by [iterations] learner iterations (at
    least 1), starting its run at the first step; afterwards the phase
    is [Live] (paused at the target) or [Done] (the run completed
    first).  Safe to call concurrently for {e distinct} sessions (the
    server's tick fans sessions out over its pool); a single session
    must only be stepped by one domain at a time.  With a sink, the
    learner's events are recorded as one stream keyed [serve/<name>],
    whichever domains run the steps. *)

val save_checkpoint : t -> path:string -> (int, string) result
(** Checkpoint the live run with {!Altune_experiments.Tune_run.save},
    returning its iteration.  The file is a regular tune checkpoint that
    records the session's [n_max] and [budget] overrides with the rest
    of its spec: [altune resume] continues it to the same outcome the
    uninterrupted session would reach, and for a session without
    overrides to the same bytes the standalone [altune tune] run would
    print.  Errors if the session has never been stepped, already
    completed, or is closed, or if the file cannot be written. *)

val view : t -> position:int option -> Protocol.session_view
(** Deterministic snapshot for status replies ([position] is the queue
    slot when queued), read from the run's
    {!Altune_core.Learner.progress} in O(1). *)
