(** Dynamic-tree regression ensemble (Taddy, Gramacy & Polson), the
    surrogate model of the paper's active learner.

    A set of [n_particles] trees is maintained by particle learning: on
    each new observation the particles are resampled in proportion to their
    posterior predictive density at the observation (systematic
    resampling), then each propagates by stochastically choosing stay /
    grow / prune for the leaf the observation lands in.  The model can be
    queried at any point for a posterior predictive mean and variance —
    the MacKay active-learning score — and for the ALC (Cohn) score, the
    expected reduction of average predictive variance over a reference set
    from one more observation at a candidate point.

    This is the inner loop of every tuning session, so the implementation
    is built for speed without giving up determinism: per-observation
    bookkeeping runs in preallocated arenas (no allocation after
    {!create}), ALC scoring reads per-leaf caches maintained incrementally
    as observations arrive (see {!Tree.alc_apply}), and the pure sweeps —
    particle reweighting, candidate scoring — fan out on an
    {!Altune_exec.Pool} when one is attached.  Fan-out decisions depend
    only on problem size and every parallel write is slot-indexed, so
    results are bit-identical at any job count; the rng-consuming particle
    updates stay sequential. *)

type params = { n_particles : int; tree : Tree.params }

val default_params : params
(** 300 particles, resampling every step, default tree parameters. *)

type t

val create : ?params:params -> rng:Altune_prng.Rng.t -> int -> t
(** [create ~rng dim] is an empty model over [dim]-dimensional (normalized)
    feature vectors.
    The rng is split internally; the caller's generator is advanced once. *)

val set_pool : t -> Altune_exec.Pool.t option -> unit
(** Attach (or detach) a pool for the parallel sweeps.  Purely a
    performance knob: outputs are identical with or without one. *)

val observe : t -> float array -> float -> unit
(** Add one (x, y) observation and update every particle.  This is the
    incremental update that makes dynamic trees cheap inside an active
    learning loop — no model reconstruction. *)

val n_observations : t -> int

type prediction = { mean : float; variance : float }

val predict : t -> float array -> prediction
(** Mixture posterior predictive across particles: mean of means, and the
    mixture variance (within-particle plus across-particle spread).
    Particles whose leaf predictive variance is undefined (too few points)
    contribute a large-but-finite variance so exploration still works. *)

val predictive_variance : t -> float array -> float
(** MacKay score: the predictive variance at [x]. *)

val alc_scores :
  t -> candidates:float array array -> refs:float array array -> float array
(** Cohn / ALC scores for a batch of candidates: for each candidate, the
    expected reduction in total predictive variance over [refs] if the
    candidate were observed once more, averaged over particles.  Higher
    means more useful.

    The first call (and any call with a physically different [refs]
    array) registers the reference set: it is partitioned once into
    per-leaf member caches, which subsequent {!observe}s keep valid by
    rerouting only the displaced leaves.  Scoring then costs one
    root-to-leaf descent per (candidate, particle) — no per-call hashing
    or sufficient-statistics math.  Pass the same [refs] array across a
    run to get the fast path. *)

val average_variance : t -> refs:float array array -> float
(** Current average predictive variance over a reference set (diagnostic,
    and the quantity ALC estimates reductions of). *)

val alc_scores_full :
  t -> candidates:float array array -> refs:float array array -> float array
(** {!alc_scores} recomputed from scratch: [refs] partitioned down every
    particle and every leaf's payoff rebuilt from its sufficient
    statistics, without the incremental caches, the pool, metrics or a
    trace span.  The reference the differential tests hold {!alc_scores}
    to, at exact float equality. *)

val reweight_par_min_particles : int
(** 256: particles at or above which {!observe}'s reweighting sweep fans
    out on the attached pool. *)

val alc_par_min_work : int
(** 16,384: candidates × particles at or above which {!alc_scores} fans
    out on the attached pool.  Outputs depend on neither gate. *)

type stats = {
  particles : int;
  mean_leaves : float;  (** Mean leaf count across particles. *)
  max_depth : int;  (** Deepest particle. *)
  depth_histogram : int array;
      (** [depth_histogram.(d)] = particles of depth [d]; length
          [max_depth + 1]. *)
  split_frequencies : float array;
      (** Fraction of all internal splits (pooled over particles) that cut
          each feature dimension; sums to 1 when any split exists, all
          zeros otherwise.  A cheap sensitivity proxy in the spirit of
          Gramacy & Taddy's dynamic-tree variable selection: dimensions
          the posterior keeps splitting on are the ones the response
          depends on. *)
}

val stats : t -> stats
(** Ensemble-shape introspection, one pass over the particles.  Each
    particle's shape record is maintained incrementally by its updates,
    so this aggregates [n_particles] cached records instead of
    traversing every tree. *)
