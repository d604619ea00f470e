(** Shared execution of the three sampling plans on a benchmark, fanned
    out over the process-wide domain pool, with compute-once caching so
    Table 1, Figure 5 and Figure 6 do not recompute one another's runs
    (and two domains never duplicate a run).

    Every (plan, repetition) pair runs as one pool task with its own
    derived RNG seed on the benchmark instance it is given (its
    evaluation store is shared by the tasks), so curves are
    bit-identical at any job count. *)

type plan_curves = {
  bench : string;
  all_observations : Altune_core.Experiment.curve;  (** Fixed 35. *)
  one_observation : Altune_core.Experiment.curve;  (** Fixed 1. *)
  variable_observations : Altune_core.Experiment.curve;  (** Adaptive. *)
}

val set_jobs : ?on_event:(Altune_exec.Pool.event -> unit) -> int -> unit
(** [set_jobs j] fixes the parallelism of the shared pool (the CLI's
    [-j/--jobs]); [1] means fully sequential.  Replaces any existing pool,
    so call it before experiments start.  [on_event] receives the pool's
    per-task progress events (for live reporting).  Default without a
    call: [Altune_exec.Pool.default_jobs ()]. *)

val jobs : unit -> int
(** Parallelism of the shared pool ([set_jobs]'s value, or the default). *)

val pool : unit -> Altune_exec.Pool.t
(** The shared pool, created on first use.  Drivers fan benchmarks out on
    it; {!curves_for} fans repetitions out on it (nested use is safe). *)

val run_key : bench:string -> Scale.t -> string -> int -> string
(** [run_key ~bench scale tag rep] is ["<bench>/<scale>/<tag>/<rep>"],
    the identity of one learner run: the key of its event stream
    ({!Altune_obs.Events.with_run}) and the input of {!fault_seed}.
    A {!Tune_run} is [tag = "tune"], [rep = 0]. *)

val fault_seed : seed:int -> string -> int
(** [fault_seed ~seed key] seeds the fault injector of the run [key]
    under master seed [seed].  Derived from the key, not drawn from any
    stream, so the run sees the same faults at any job count. *)

val dataset_for :
  Altune_spapt.Spapt.t -> Scale.t -> seed:int -> Altune_core.Dataset.t
(** Cached dataset for a benchmark at a scale (deterministic per seed). *)

val curves_for :
  ?fault:Altune_exec.Fault.spec ->
  Altune_spapt.Spapt.t ->
  Scale.t ->
  seed:int ->
  plan_curves
(** Curves for all three plans, averaged over [scale.reps] repetitions
    with seeds derived from [seed]; cached per (benchmark, scale, seed,
    fault spec).  Each (plan, repetition) runs under its own {!run_key};
    with [fault] (the CLI's [--fault-spec]) its injector is seeded by
    {!fault_seed} of that key. *)

val clear_cache : unit -> unit
