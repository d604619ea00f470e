(** Model-agnostic surrogate interface.

    The active learner needs exactly four things from its model:
    incremental observation, posterior predictive mean/variance, ALC
    scores, and an observation count.  The paper uses dynamic trees
    (Section 3.2) and argues for them over Gaussian processes on update
    cost; both are provided here behind this interface, so that argument
    is reproducible as an ablation, and swapping in another regressor
    means implementing one module. *)

type prediction = { mean : float; variance : float }

type tree_stats = Altune_obs.Events.tree_stats = {
  mean_leaves : float;
  max_depth : int;
  depth_histogram : int array;  (** Index = depth, value = particles. *)
  split_frequencies : float array;
      (** Per-dimension share of posterior splits — the sensitivity proxy
          surfaced by learner events (see {!Altune_dynatree.Dynatree.stats}). *)
}
(** The learner event's record, so a model's stats go into an [eval]
    event as they are. *)

module type S = sig
  type t

  val name : string
  val observe : t -> float array -> float -> unit
  val predict : t -> float array -> prediction

  val alc_scores :
    t -> candidates:float array array -> refs:float array array -> float array
  (** Expected reduction of summed predictive variance over [refs] per
      candidate (higher = more informative). *)

  val n_observations : t -> int

  val tree_stats : t -> tree_stats option
  (** Posterior-shape introspection for models that have one ([None] for
      models without tree structure, e.g. a GP).  Must be cheap and
      side-effect free: the learner calls it at every evaluation point
      when event telemetry is on. *)

  val set_pool : t -> Altune_exec.Pool.t option -> unit
  (** Attach a worker pool for internal data parallelism.  Purely a
      performance knob — implementations must produce bit-identical
      results with or without one (a no-op for models with nothing to
      parallelize). *)
end

type t = Pack : (module S with type t = 'a) * 'a -> t

val observe : t -> float array -> float -> unit
val predict : t -> float array -> prediction
val predictive_variance : t -> float array -> float

val alc_scores :
  t -> candidates:float array array -> refs:float array array -> float array

val n_observations : t -> int
val name : t -> string
val tree_stats : t -> tree_stats option
val set_pool : t -> Altune_exec.Pool.t option -> unit

type factory = noise_hint:float option -> rng:Altune_prng.Rng.t -> dim:int -> t
(** Build a fresh surrogate for a [dim]-dimensional standardized feature
    space.  [noise_hint] is the within-configuration measurement variance
    estimated from the learner's seed phase (standardized units), for
    models that can calibrate a noise prior from it. *)

val dynatree : ?particles:int -> unit -> factory
(** The paper's model: a dynamic-tree ensemble.  When a [noise_hint] is
    available, the leaf prior's noise scale is centred on it (see
    {!Learner.settings.empirical_prior}). *)
