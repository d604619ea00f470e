(** Measurement-noise simulation.

    The paper's central premise is that runtime measurements are noisy for
    many reasons — interference from other processes, Turbo-Boost-style
    frequency changes, address-space layout randomization, allocator
    behaviour — and that the amount of noise varies wildly across the
    optimization space (its Table 2).  This module simulates a measurement
    pipeline: a deterministic "true" runtime goes in, a noisy observed
    runtime comes out.  Channels compose multiplicatively, and everything
    is driven by an explicit {!Altune_prng.Rng.t}, so experiments remain
    reproducible. *)

type channel =
  | Gaussian_rel of float
      (** Zero-mean Gaussian with standard deviation proportional to the
          true value: baseline timer and scheduler jitter. *)
  | Burst of { probability : float; mu : float; sigma : float }
      (** With the given probability, multiply by [1 + lognormal(mu,
          sigma)]: another process stealing cores or cache for part of the
          run.  Produces the heavy right tail real measurements show. *)
  | Layout of { buckets : int; amplitude : float }
      (** Address-space layout randomization: each run draws one of
          [buckets] layouts, each with a fixed (hash-derived) runtime
          factor within ±[amplitude].  Re-measuring under the same layout
          reproduces the same bias, which is why single measurements
          mislead (Mytkowicz et al.; Curtsinger & Berger). *)
  | Drift of { period : float; amplitude : float }
      (** Slow sinusoidal drift with the run counter: thermal / DVFS
          state. *)

type t

val create : channel list -> t

val scale_gaussian : t -> float -> t
(** [scale_gaussian t f] multiplies the relative Gaussian components by
    [f] — the per-configuration heteroskedasticity hook. *)

val sample :
  t -> rng:Altune_prng.Rng.t -> run_index:int -> true_value:float -> float
(** One noisy measurement of [true_value].  Always positive. *)

val channels : t -> channel list
