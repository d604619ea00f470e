(** The 11 SPAPT autotuning search problems used in the paper's
    evaluation.

    Each benchmark bundles a kernel, its tunable transformation knobs
    (cache-tile sizes, register-tile / unroll-and-jam factors, unroll
    factors — the parameter kinds of SPAPT), a machine model, and a
    calibrated measurement-noise model.  A configuration is a point in the
    integer knob space; measuring it once yields one noisy runtime sample,
    exactly the operation whose count the paper minimizes. *)

type knob =
  | Tile of { loop : string; sizes : int array }
      (** Cache-tile size chosen from [sizes] (1 = off).  Loops sharing a
          [group] are tiled together into one rectangular tile nest. *)
  | Jam of { loop : string; max_factor : int }
      (** Register tiling by unroll-and-jam, factor in [1 .. max_factor]. *)
  | Unroll of { loop : string; max_factor : int }
      (** Plain unrolling, factor in [1 .. max_factor]. *)

val knob_cardinality : knob -> int
val knob_name : knob -> string

type t
(** A benchmark: an immutable description plus one evaluation store.

    The store caches each configuration's (true runtime, compile
    seconds) — the transform, access and stride analysis and
    machine-model pricing behind every measurement — compute-once and
    domain-safe ({!Altune_exec.Memo}), so one instance can be shared by
    every task, repetition and session that tunes the benchmark.  It
    holds at most 8192 entries, evicted second-chance ("clock")
    oldest-unreferenced first; eviction only ever costs recomputation,
    because every stored value is a deterministic function of its
    configuration.  It exports the
    [spapt.cache.hits]/[.misses]/[.waits]/[.evictions] counters to
    {!Altune_obs.Metrics}. *)

val name : t -> string
val kernel : t -> Altune_kernellang.Ast.kernel
val knobs : t -> knob list
val dim : t -> int
(** Number of knobs = feature dimensionality. *)

val space_size : t -> float
(** Product of knob cardinalities. *)

val create : string -> t
(** [create name] builds the named benchmark with its calibrated noise
    model and an empty store.  Raises [Not_found] for unknown names. *)

val all : unit -> t list
(** All 11 benchmarks, Table 1 order. *)

val random_config : t -> Altune_prng.Rng.t -> int array
(** Uniform configuration; entry [i] ranges over knob [i]'s values. *)

val config_valid : t -> int array -> bool

val recipe : t -> int array -> Altune_kernellang.Verify.step list
(** The configuration's transformation steps in application order (tile
    nests, then unroll-and-jams innermost-first, then unrolls), with
    identity steps dropped.  Raises [Invalid_argument] if the
    configuration is out of range. *)

val transformed : t -> int array -> Altune_kernellang.Ast.kernel
(** The kernel with the configuration's transformations applied from
    scratch — [recipe] run through
    {!Altune_kernellang.Verify.apply_steps}.  Raises [Invalid_argument]
    if the configuration is out of range; transformation recipes are
    total over valid configurations. *)

val fork_stats : t -> Fork.stats
(** All zero: evaluation does not go through a prefix trie.  Kept for
    perfbench, which still reports the trie's counters. *)

val prepare : ?pool:Altune_exec.Pool.t -> t -> int array list -> unit
(** Warm the store for a batch of configurations about to be measured:
    with a [pool] of more than one job, the uncached members
    (deduplicated, invalid ones skipped) are evaluated as one chunked
    fan-out.  Otherwise it does nothing, and each configuration is
    evaluated at its first measurement instead.  Evaluation is
    deterministic, so warming (or not) changes no observable output at
    any job count. *)

val small_params : t -> (string * int) list
(** Problem-size overrides small enough for interpreter-based soundness
    checks of this benchmark. *)

val verify_config : t -> int array -> Altune_kernellang.Verify.verdict
(** Independent step-by-step soundness audit of the configuration's
    recipe ({!Altune_kernellang.Verify.run} on the untransformed kernel
    at [small_params]). *)

val features : t -> int array -> float array
(** Scaled-and-centred feature vector (the paper's Section 4.5
    normalization), deterministic per benchmark. *)

val true_runtime : t -> int array -> float
(** Deterministic machine-model runtime, through the store. *)

val compile_seconds : t -> int array -> float
(** Simulated compile cost of the configuration's binary, through the
    store. *)

val noise_sigma : t -> int array -> float
(** The configuration's relative noise level — the heteroskedastic field
    (most configurations are quiet; a hash-derived lognormal tail makes
    some extremely noisy, as in the paper's Table 2). *)

val measure : t -> rng:Altune_prng.Rng.t -> run_index:int -> int array -> float
(** One noisy runtime measurement, in seconds. *)
