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
    - the checkpoint's contents (the full {!spec} and the learner
      state), and the checks made when it is read.

    Every run is savable, and {!start} is the one way to run one, fresh
    or resumed: both derive the dataset and fault seed from the spec.

    Callers keep what differs between them: the event sink and the key
    of the run's stream on it, the worker pool and serve's [note]
    hook. *)

type spec = {
  bench : string;  (** SPAPT benchmark name. *)
  scale : Scale.t;
  seed : int;  (** Master seed: dataset, learner stream, fault seed. *)
  fault : Altune_exec.Fault.spec option;
  n_max : int option;  (** Override of the scale's iteration cap. *)
  budget : float option;
      (** Override of the scale's cost budget
          ({!Altune_core.Learner.settings}[.budget]), simulated seconds. *)
}

val spec_of :
  bench:string ->
  scale:string ->
  seed:int ->
  fault:string option ->
  n_max:int option ->
  budget:float option ->
  (spec, string) result
(** The one check of a spec that arrives from outside the program, in a
    serve [open] request or a checkpoint file: [bench] must be a known
    benchmark ([Error "unknown benchmark ...; known: ..."]), [scale] a
    scale label, [fault] a {!Altune_exec.Fault.of_string} spec
    ([Error "bad fault spec: ..."]), [n_max] at least 1 and [budget]
    above 0 ([Error "budget and n_max must be positive"]).  Serve sends
    these errors as they are. *)

type t
(** A run in progress, paused between steps. *)

val start :
  ?events:Altune_obs.Events.sink ->
  ?stream:string ->
  ?note:(Altune_core.Problem.config -> (unit -> float) -> float) ->
  ?resume:Altune_core.Learner.state ->
  pool:Altune_exec.Pool.t ->
  Altune_spapt.Spapt.t ->
  spec ->
  t
(** Start the run on [bench], an instance of [spec.bench], from the
    cached dataset ({!Runs.dataset_for}): the seed phase runs now, or
    with [resume] (a state {!load}ed with [spec]) the run continues from
    it, to the outcome and events of the uninterrupted run.

    With [events] the run streams its events on that sink, under the
    key [stream] (default: the run key); the run holds the stream, so
    its steps continue one sequence.  Without [events] it emits
    nothing.  [note c
    eval] wraps each of the learner's evaluations of [c] (every call of
    the problem's [measure] and [compile_seconds], not dataset
    generation) and must return [eval ()].  [pool] runs the surrogate's
    internal parallelism and, without [note], the problem's
    candidate-batch warm-up ({!Adapter.problem_of}); a noted problem
    gets no pool, since the warm-up would evaluate outside [note].
    Results are identical at any job count. *)

val load : string -> (spec * Altune_core.Learner.state, string) result
(** Read a checkpoint file: the run's spec and the state to resume.
    Fails on a file that does not parse (the message starts with the
    path) or a spec that {!spec_of} refuses (its message, followed by
    [" in checkpoint"]). *)

val step : t -> iterations:int -> Altune_core.Learner.outcome option
(** {!Altune_core.Learner.step}: its events continue the run's
    stream. *)

val progress : t -> Altune_core.Learner.progress
(** {!Altune_core.Learner.progress}, in O(1). *)

val save : t -> path:string -> (int, string) result
(** Atomically write the run's checkpoint ({!Altune_core.Checkpoint})
    and return its iteration; [Error] if the file cannot be written. *)
