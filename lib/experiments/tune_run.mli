(** One tune run: the adaptive learner run that [altune tune] makes for
    a benchmark, scale, seed and fault spec, that [altune resume]
    continues from a checkpoint, and that a serve session steps in
    increments.

    Every rule that lets a checkpoint written by one of the three resume
    byte for byte in another lives here:
    - the run key ["<bench>/<scale>/tune/0"] ({!Runs.run_key}) and the
      fault seed derived from it ({!Runs.fault_seed});
    - the settings: the scale's adaptive settings with serve's [n_max]
      and [budget] overrides;
    - the stock rule ({!savable});
    - the checkpoint's metadata, and the checks made when it is read.

    Callers keep what differs between them: the key of the event
    stream, the worker pool and serve's [note] hook. *)

type spec = {
  bench : string;  (** SPAPT benchmark name. *)
  scale : Scale.t;
  seed : int;  (** Master seed: dataset, learner stream, fault seed. *)
  fault : Altune_exec.Fault.spec option;
  n_max : int option;  (** Override of the scale's iteration cap. *)
  budget : float option;
      (** Extra [Cost_budget] stop criterion, simulated seconds. *)
}

val savable : spec -> (unit, string) result
(** [Ok ()] for a stock run, one without [n_max] or [budget] override.
    A checkpoint records the scale label, not the settings, so a run
    with overrides cannot be checkpointed: {!save} refuses it with this
    error. *)

type t
(** A run in progress, paused between steps. *)

val start :
  ?stream:string ->
  ?note:(Altune_core.Problem.config -> (unit -> float) -> float) ->
  pool:Altune_exec.Pool.t ->
  Altune_spapt.Spapt.t ->
  spec ->
  t
(** Start the run on [bench], an instance of [spec.bench], from the
    cached dataset ({!Runs.dataset_for}): the seed phase runs now.

    [stream] keys the run's event stream (default: the run key); the
    run holds the stream, so its steps continue one sequence.  [note c
    eval] wraps each of the learner's evaluations of [c] (every call of
    the problem's [measure] and [compile_seconds], not dataset
    generation) and must return [eval ()].  [pool] runs the surrogate's
    internal parallelism and, without [note], the problem's
    candidate-batch warm-up ({!Adapter.problem_of}); a noted problem
    gets no pool, since the warm-up would evaluate outside [note].
    Results are identical at any job count. *)

type saved
(** A checkpoint read back: the run's spec, and the dataset, fault seed
    and learner state stored with it. *)

val load : string -> (saved, string) result
(** Read a checkpoint file.  Fails on a file that does not parse (the
    message starts with the path), an unknown scale or benchmark, or a
    fault spec that does not parse. *)

val saved_spec : saved -> spec
(** The stock spec the checkpoint records. *)

val resume : pool:Altune_exec.Pool.t -> Altune_spapt.Spapt.t -> saved -> t
(** Continue a saved run on an instance of its benchmark, with the
    stored dataset and fault seed rather than derived ones, as
    {!start} does without [stream] or [note].  Stepped to its end, it
    gives the outcome and events of the uninterrupted run. *)

val step : t -> iterations:int -> Altune_core.Learner.outcome option
(** {!Altune_core.Learner.step} under the run's event stream. *)

val progress : t -> Altune_core.Learner.progress
(** {!Altune_core.Learner.progress}, in O(1). *)

val save : t -> path:string -> (int, string) result
(** Atomically write the run's checkpoint ({!Altune_core.Checkpoint})
    and return its iteration; refuses a run that is not {!savable}. *)
