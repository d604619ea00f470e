(** One tenant's tuning session: a resumable {!Altune_core.Learner.run}
    advanced in increments.

    A session is the same run [altune tune] would perform for its
    (benchmark, scale, seed) — same dataset, same learner stream, same
    fault-seed derivation — except that it runs on the server's instance
    of its benchmark, which every session tuning that kernel shares, and
    that each of its evaluations is reported to the server through the
    [note] callback given to {!create}.  The instance's evaluation store
    is deterministic per configuration, so sharing changes who {e pays}
    for an evaluation, never its value: a served session's learner
    stream is byte-identical to the standalone run's.

    Stepping works by running the learner with a checkpoint callback at
    every iteration that halts once the target iteration is reached and
    holds the captured state as the next step's resume point; a run that
    completes (iteration cap or cost budget) before the target instead
    yields its final outcome and the session becomes [Done]. *)

type config = {
  name : string;
  bench : string;
  scale : Altune_experiments.Scale.t;
  seed : int;
  fault : Altune_exec.Fault.spec option;
  budget : float option;
      (** Extra [Cost_budget] stop criterion, simulated seconds. *)
  n_max : int option;  (** Override of the scale's iteration cap. *)
  checkpoint_path : string option;
      (** Where graceful shutdown checkpoints this session. *)
}

type phase = Queued | Live | Done | Closed

type t

val create :
  id:int ->
  bench:Altune_spapt.Spapt.t ->
  note:(int array -> (unit -> float) -> float) ->
  config ->
  t
(** A fresh session in phase [Queued] on [bench], the instance of
    [config.bench] the server shares between its sessions.  Heavy
    resources (problem, dataset, fault injector) materialize lazily at
    the first step, so queueing hundreds of sessions is cheap.

    [note c eval] wraps each of the learner's evaluations of
    configuration [c] — every call of the problem's [measure] and
    [compile_seconds], but not dataset generation — and must return
    [eval ()]; the server counts and times the lookups there.  It may be
    called from any domain stepping the session. *)

val id : t -> int
(** Admission order: the [id] passed to {!create}. *)

val config : t -> config
val phase : t -> phase

val admit : t -> unit
(** [Queued] -> [Live].  No-op in any other phase. *)

val close : t -> unit
(** Any phase -> [Closed].  Freezes the session's {!view} and drops
    everything else it holds (problem, dataset reference, learner state,
    outcome and its model), so a closed session costs only its view. *)

val step :
  ?exec_pool:Altune_exec.Pool.t -> t -> iterations:int -> (unit, string) result
(** Advance a [Live] session by [iterations] learner iterations (at
    least 1); afterwards the phase is [Live] (halted at the target) or
    [Done] (the run completed first).  Safe to call concurrently for
    {e distinct} sessions (the server's tick fans sessions out over its
    pool); a single session must only be stepped by one domain at a
    time.  [?exec_pool] is forwarded to {!Altune_core.Learner.run} for
    the surrogate's internal parallelism (results are identical without
    it). *)

val stock_settings : t -> bool
(** Whether the session runs its scale's unmodified settings — the
    precondition for {!save_checkpoint}, because [altune resume]
    rebuilds settings from the scale label alone. *)

val save_checkpoint : t -> path:string -> (int, string) result
(** Serialize the session's resume state with
    {!Altune_core.Checkpoint.save}, returning its iteration.  The file
    is a regular tune checkpoint: [altune resume] continues it to the
    same bytes the uninterrupted standalone run would print.  Errors if
    the session has non-stock settings, has never been stepped, already
    completed, or is closed. *)

val view : t -> position:int option -> Protocol.session_view
(** Deterministic snapshot for status replies ([position] is the queue
    slot when queued).  A closed session returns the view frozen by
    {!close}. *)
