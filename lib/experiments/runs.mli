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

val set_fault : Altune_exec.Fault.spec option -> unit
(** [set_fault (Some spec)] injects deterministic faults (the CLI's
    [--fault-spec]) into every learner run launched by {!curves_for} and
    the drivers; each run's injector is seeded from its run key, so
    results stay bit-identical at any job count.  Set it before
    experiments start (cached curves are keyed by the spec).  [None]
    (the default) disables injection. *)

val fault_spec : unit -> Altune_exec.Fault.spec option

val pool : unit -> Altune_exec.Pool.t
(** The shared pool, created on first use.  Drivers fan benchmarks out on
    it; {!curves_for} fans repetitions out on it (nested use is safe). *)

val dataset_for :
  Altune_spapt.Spapt.t -> Scale.t -> seed:int -> Altune_core.Dataset.t
(** Cached dataset for a benchmark at a scale (deterministic per seed). *)

val curves_for :
  Altune_spapt.Spapt.t -> Scale.t -> seed:int -> plan_curves
(** Curves for all three plans, averaged over [scale.reps] repetitions
    with seeds derived from [seed]; cached per (benchmark, scale, seed). *)

val clear_cache : unit -> unit
