module Dynatree_impl = Altune_dynatree.Dynatree
module Leaf_model = Altune_dynatree.Leaf_model

type prediction = { mean : float; variance : float }

type tree_stats = Altune_obs.Events.tree_stats = {
  mean_leaves : float;
  max_depth : int;
  depth_histogram : int array;
  split_frequencies : float array;
}

module type S = sig
  type t

  val name : string
  val observe : t -> float array -> float -> unit
  val predict : t -> float array -> prediction

  val alc_scores :
    t -> candidates:float array array -> refs:float array array -> float array

  val n_observations : t -> int
  val tree_stats : t -> tree_stats option
  val set_pool : t -> Altune_exec.Pool.t option -> unit
end

type t = Pack : (module S with type t = 'a) * 'a -> t

let observe (Pack ((module M), m)) x y = M.observe m x y
let set_pool (Pack ((module M), m)) pool = M.set_pool m pool
let predict (Pack ((module M), m)) x = M.predict m x
let predictive_variance pack x = (predict pack x).variance

let alc_scores (Pack ((module M), m)) ~candidates ~refs =
  M.alc_scores m ~candidates ~refs

let n_observations (Pack ((module M), m)) = M.n_observations m
let name (Pack ((module M), _)) = M.name
let tree_stats (Pack ((module M), m)) = M.tree_stats m

type factory =
  noise_hint:float option -> rng:Altune_prng.Rng.t -> dim:int -> t

module Dynatree_surrogate = struct
  type t = Dynatree_impl.t

  let name = "dynatree"
  let observe = Dynatree_impl.observe

  let predict m x =
    let p = Dynatree_impl.predict m x in
    { mean = p.Dynatree_impl.mean; variance = p.Dynatree_impl.variance }

  let alc_scores = Dynatree_impl.alc_scores
  let n_observations = Dynatree_impl.n_observations
  let set_pool = Dynatree_impl.set_pool

  let tree_stats m =
    let s = Dynatree_impl.stats m in
    Some
      {
        mean_leaves = s.Dynatree_impl.mean_leaves;
        max_depth = s.Dynatree_impl.max_depth;
        depth_histogram = s.Dynatree_impl.depth_histogram;
        split_frequencies = s.Dynatree_impl.split_frequencies;
      }
end

let dynatree ?(particles = Dynatree_impl.default_params.n_particles) () :
    factory =
 fun ~noise_hint ~rng ~dim ->
  let base = { Dynatree_impl.default_params with n_particles = particles } in
  let params =
    match noise_hint with
    | None -> base
    | Some within ->
        (* Centre the leaf prior's inverse-gamma noise scale on the
           measured within-configuration variance: prior mean of sigma^2
           is b0 / (a0 - 1). *)
        let prior = base.tree.prior in
        let b0 =
          Float.max 1e-8 (within *. (prior.Leaf_model.a0 -. 1.0))
        in
        { base with tree = { base.tree with prior = { prior with b0 } } }
  in
  Pack
    ( (module Dynatree_surrogate),
      Dynatree_impl.create ~params ~rng dim )
