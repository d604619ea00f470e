(** A single dynamic-tree particle: an axis-aligned binary regression tree
    over a shared data store, supporting the stochastic stay / grow / prune
    update of Taddy, Gramacy & Polson and the leaf queries the ensemble
    needs (predictive lookup, reference-set partitioning).

    The observation store is struct-of-arrays (one flat coordinate array,
    one response array), leaves carry the ALC caches the ensemble's
    incremental scorer reads, and every update reports a {!delta} naming
    exactly which leaves it displaced. *)

type store
(** Shared, append-only observation store ([x] vectors and [y] responses);
    all particles index into the same store.  Coordinates live in one flat
    row-major float array of stride [dim]. *)

val make_store : dim:int -> store
val store_size : store -> int
val append : store -> float array -> float -> int
(** Add an observation, returning its index.  The [x] array is copied. *)

val store_x : store -> int -> float array
(** A fresh copy of observation [i]'s coordinates (not the hot path). *)

val store_get : store -> int -> int -> float
(** [store_get st i d] is coordinate [d] of observation [i] — a single
    flat-array read. *)

val store_y : store -> int -> float

type leaf = {
  id : int;  (** Globally unique per store; fresh on every update. *)
  indices : int list;  (** Store indices of the leaf's observations. *)
  suff : Leaf_model.suff;
  pred : Leaf_model.predictive;
      (** [Leaf_model.predict prior suff], computed at leaf creation — a
          pure function of [suff], so never stale.  {!predict} and
          {!log_predictive} read it. *)
  evr : float;
      (** [Leaf_model.expected_variance_reduction prior suff], computed at
          leaf creation — a pure function of [suff], so never stale. *)
  mutable m_epoch : int;
      (** Registration epoch {!members} was filled for; the cache is valid
          iff this equals the ensemble's current epoch. *)
  mutable members : int array;
      (** Indices (into the registered reference set) of the reference
          points landing in this leaf.  Filled by {!alc_init} /
          {!alc_apply}; meaningless when [m_epoch] is stale. *)
}
(** Leaves are immutable except for the two ALC cache fields.  Nodes are
    shared structurally across particles; a shared leaf covers the same
    region with the same data in every particle, so the caches agree. *)

type t
(** One particle. *)

type params = {
  alpha : float;  (** Split-prior base rate, [p_split = alpha (1+d)^-beta]. *)
  beta : float;  (** Split-prior depth decay. *)
  prior : Leaf_model.prior;
  min_leaf : int;  (** Minimum observations on each side of a new split. *)
}

val default_params : params

val singleton : params -> store -> int list -> t
(** A root-leaf tree over the given observation indices. *)

val log_predictive : t -> float array -> float -> float
(** [log p(y | x, tree)] — the particle weight factor for resampling. *)

type delta
(** What one {!update} changed: the displaced leaves and the subtree that
    replaced them.  The ensemble reroutes cached reference-set members
    through the replacement instead of re-partitioning from the root —
    the one-observation update only ever touches one leaf path. *)

val delta_new_leaves : delta -> int
(** Leaves in the replacement subtree (1 for stay/prune, 2 for grow). *)

val update : rng:Altune_prng.Rng.t -> t -> int -> t * delta
(** [update ~rng tree i] inserts observation [i] (already in the store)
    into the leaf containing its [x], stochastically choosing among stay /
    grow (on a sampled candidate split) / prune in proportion to their
    local posterior weight.  Also reports which leaves were displaced. *)

val predict : t -> float array -> Leaf_model.predictive

val leaf_at : t -> float array -> leaf
(** The leaf containing [x] — one root-to-leaf descent.  The fast ALC
    scorer reads [members]/[evr] straight off the result. *)

val leaf_stats_at : t -> float array -> int * Leaf_model.suff
(** Leaf id and sufficient statistics of the leaf containing [x]. *)

val leaf_ref_counts : t -> float array array -> (int, int) Hashtbl.t
(** Partition a reference set down the tree: leaf id → number of reference
    points landing in that leaf.  (Slow-path ALC only.) *)

val alc_init : t -> refs:float array array -> epoch:int -> unit
(** Route the whole reference set down the tree, filling every leaf's
    member cache for [epoch]. *)

val alc_apply : t -> delta -> refs:float array array -> epoch:int -> unit
(** Reroute the displaced leaves' cached members through the update's
    replacement subtree.  Falls back to {!alc_init} if a displaced cache
    is stale. *)

val n_leaves : t -> int
val depth : t -> int
val n_observations : t -> int

type stats = {
  n_leaves : int;
  depth : int;
  split_counts : int array;
      (** Internal splits per feature dimension (length = store dim). *)
}

val stats : t -> stats
(** Shape introspection — leaf count, max depth, and how often each
    dimension is split on.  Maintained incrementally by {!update} (O(dim)
    per move), so this is O(1); the split counts are the raw material of
    the ensemble's sensitivity proxy: a dimension the posterior splits on
    often is one the response depends on. *)

val recompute_stats : t -> stats
(** The same record by full traversal — the differential-testing oracle
    for the incremental bookkeeping. *)
