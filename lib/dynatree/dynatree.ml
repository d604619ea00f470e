module Rng = Altune_prng.Rng
module Pool = Altune_exec.Pool
module Metrics = Altune_obs.Metrics
module Trace = Altune_obs.Trace

type params = {
  n_particles : int;
  tree : Tree.params;
  resample_threshold : float;
}

let default_params =
  { n_particles = 300; tree = Tree.default_params; resample_threshold = 1.0 }

(* Parallelism gates.  Both are in units of *work items*, not jobs: the
   decision to fan out must be a pure function of the problem size so the
   code path (and therefore the output) is the same at any [--jobs].
   Every parallel phase below is pure-read over the particles with
   slot-indexed writes and a sequential in-order reduction, so fan-out
   never changes a single bit — these gates only keep pool overhead away
   from ensembles too small to amortize it. *)
let reweight_par_min_particles = 256
let alc_par_min_work = 16_384

(* surrogate.* telemetry.  Eager, not [lazy]: models on different
   domains would force a lazy handle concurrently, which raises
   [CamlinternalLazy.Undefined]. *)
let m_observes = Metrics.counter "surrogate.observes"
let m_resamples = Metrics.counter "surrogate.resamples"
let m_leaves_created = Metrics.counter "surrogate.leaves.created"
let m_alc_calls = Metrics.counter "surrogate.alc.calls"
let m_alc_scores = Metrics.counter "surrogate.alc.scores"
let m_alc_reinits = Metrics.counter "surrogate.alc.reinits"

type t = {
  params : params;
  rng : Rng.t;
  store : Tree.store;
  mutable particles : Tree.t array;
  mutable weights : float array;  (* normalized *)
  (* Preallocated arenas, reused by every [observe]: log-weights, scratch
     normalized weights, and the resampling target.  Nothing on the
     per-observation bookkeeping path allocates after [create]. *)
  log_w : float array;
  w_scratch : float array;
  p_scratch : Tree.t array;
  mutable pool : Pool.t option;
  (* Incremental-ALC registration: the reference set currently routed into
     the per-leaf member caches, keyed by physical identity (the learner
     builds [refs] once per run).  [alc_epoch = 0] means nothing is
     registered; each re-registration bumps the epoch, instantly
     invalidating every cached member array. *)
  mutable alc_refs : float array array;
  mutable alc_epoch : int;
}

let create ?(params = default_params) ~rng dim =
  if params.n_particles <= 0 then
    invalid_arg "Dynatree.create: n_particles must be positive";
  let rng = Rng.split rng in
  let store = Tree.make_store ~dim in
  let particles =
    Array.init params.n_particles (fun _ -> Tree.singleton params.tree store [])
  in
  let n = params.n_particles in
  {
    params;
    rng;
    store;
    particles;
    weights = Array.make n (1.0 /. float_of_int n);
    log_w = Array.make n 0.0;
    w_scratch = Array.make n 0.0;
    p_scratch = Array.make n particles.(0);
    pool = None;
    alc_refs = [||];
    alc_epoch = 0;
  }

let set_pool t pool = t.pool <- pool
let n_observations t = Tree.store_size t.store

let effective_sample_size weights =
  let sumsq = Array.fold_left (fun acc w -> acc +. (w *. w)) 0.0 weights in
  if sumsq = 0.0 then 0.0 else 1.0 /. sumsq

(* Systematic resampling: one uniform offset, evenly spaced pointers.
   Writes the survivors into [out] (the preallocated scratch). *)
let systematic_resample rng particles weights out =
  let n = Array.length particles in
  let nf = float_of_int n in
  let u0 = Rng.uniform rng /. nf in
  let cum = ref weights.(0) in
  let j = ref 0 in
  for k = 0 to n - 1 do
    let target = u0 +. (float_of_int k /. nf) in
    while !cum < target && !j < n - 1 do
      incr j;
      cum := !cum +. weights.(!j)
    done;
    out.(k) <- Tree.copy particles.(!j)
  done

(* Split [0..n-1] into contiguous chunks for slot-indexed parallel fills.
   Chunk count tracks the pool width; each task owns a disjoint range of
   the output arena, so results are position-determined and identical at
   any job count. *)
let chunk_ranges ~chunks n =
  let chunks = max 1 (min chunks n) in
  let per = (n + chunks - 1) / chunks in
  let rec go lo acc =
    if lo >= n then List.rev acc
    else go (lo + per) ((lo, min n (lo + per)) :: acc)
  in
  go 0 []

let use_pool t ~work ~min_work =
  match t.pool with
  | Some pool when Pool.jobs pool > 1 && work >= min_work -> Some pool
  | _ -> None

let observe t x y =
  Trace.with_span ~phase:"tree-update" ~name:"surrogate.observe" @@ fun () ->
  let n = Array.length t.particles in
  (* Reweight by posterior predictive density at the incoming point.  The
     per-particle terms are independent pure reads, so this sweep may fan
     out; each task fills its own slice of the [log_w] arena. *)
  let fill_log_w lo hi =
    for i = lo to hi - 1 do
      t.log_w.(i) <- log t.weights.(i) +. Tree.log_predictive t.particles.(i) x y
    done
  in
  (match use_pool t ~work:n ~min_work:reweight_par_min_particles with
  | Some pool ->
      ignore
        (Pool.map
           ~label:(fun i -> Printf.sprintf "reweight %d" i)
           pool
           (fun (lo, hi) -> fill_log_w lo hi)
           (chunk_ranges ~chunks:(4 * Pool.jobs pool) n))
  | None -> fill_log_w 0 n);
  let m = Array.fold_left Float.max neg_infinity t.log_w in
  let w = t.w_scratch in
  if Float.is_finite m then
    for i = 0 to n - 1 do
      w.(i) <- exp (t.log_w.(i) -. m)
    done
  else Array.fill w 0 n 1.0;
  let total = Array.fold_left ( +. ) 0.0 w in
  if total > 0.0 && Float.is_finite total then
    for i = 0 to n - 1 do
      w.(i) <- w.(i) /. total
    done
  else Array.fill w 0 n (1.0 /. float_of_int n);
  let ess = effective_sample_size w in
  let resampled = ess < t.params.resample_threshold *. float_of_int n in
  let src =
    if resampled then begin
      Metrics.incr m_resamples;
      systematic_resample t.rng t.particles w t.p_scratch;
      Array.fill t.weights 0 n (1.0 /. float_of_int n);
      t.p_scratch
    end
    else begin
      Array.blit w 0 t.weights 0 n;
      t.particles
    end
  in
  (* Propagate: insert the observation into every particle.  The updates
     draw from one shared rng stream, so this loop is inherently
     sequential — determinism lives here, speed lives in the sweeps
     around it.  When a reference set is registered, each particle's
     displaced members are rerouted through its replacement subtree
     immediately, keeping every leaf's ALC cache valid. *)
  let i = Tree.append t.store x y in
  let new_leaves = ref 0 in
  for k = 0 to n - 1 do
    let p, d = Tree.update ~rng:t.rng src.(k) i in
    t.particles.(k) <- p;
    new_leaves := !new_leaves + Tree.delta_new_leaves d;
    if t.alc_epoch > 0 then
      Tree.alc_apply p d ~refs:t.alc_refs ~epoch:t.alc_epoch
  done;
  Metrics.incr m_observes;
  Metrics.add m_leaves_created !new_leaves

type prediction = { mean : float; variance : float }

(* Cap for leaves whose Student-t variance is undefined: keeps exploration
   scores finite and comparable. *)
let variance_cap = 1e6

let capped_variance (pr : Leaf_model.predictive) =
  if Float.is_finite pr.variance then Float.min pr.variance variance_cap
  else variance_cap

(* A loop rather than [Array.iteri]: the accumulators stay unboxed, so a
   query allocates only its result. *)
let predict t x =
  let mean = ref 0.0 and second = ref 0.0 in
  for i = 0 to Array.length t.particles - 1 do
    let pr = Tree.predict t.particles.(i) x in
    let v = capped_variance pr in
    let w = t.weights.(i) in
    mean := !mean +. (w *. pr.mean);
    second := !second +. (w *. (v +. (pr.mean *. pr.mean)))
  done;
  let mean = !mean in
  { mean; variance = Float.max 0.0 (!second -. (mean *. mean)) }

let predictive_variance t x = (predict t x).variance

let average_variance t ~refs =
  if Array.length refs = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    Array.iter (fun x -> acc := !acc +. predictive_variance t x) refs;
    !acc /. float_of_int (Array.length refs)
  end

(* Full recompute: partition [refs] down every particle from the root and
   rebuild every leaf's sufficient-statistics payoff.  This is the
   pre-incremental implementation, kept verbatim as the differential
   oracle of [alc_scores]. *)
let alc_scores_full t ~candidates ~refs =
  let nrefs = float_of_int (max 1 (Array.length refs)) in
  (* Per particle: how many reference points share each leaf. *)
  let ref_counts = Array.map (fun p -> Tree.leaf_ref_counts p refs) t.particles in
  Array.map
    (fun c ->
      let score = ref 0.0 in
      Array.iteri
        (fun i p ->
          let leaf_id, suff = Tree.leaf_stats_at p c in
          let count =
            Option.value ~default:0 (Hashtbl.find_opt ref_counts.(i) leaf_id)
          in
          if count > 0 then begin
            let reduction =
              Leaf_model.expected_variance_reduction t.params.tree.prior suff
            in
            let reduction = Float.min reduction variance_cap in
            score :=
              !score +. (t.weights.(i) *. float_of_int count *. reduction)
          end)
        t.particles;
      !score /. nrefs)
    candidates

(* Defensive slow count for a leaf whose member cache missed the current
   epoch.  The observe-time rerouting keeps caches valid, so this only
   runs if a particle was mutated behind the ensemble's back. *)
let stale_leaf_count t (l : Tree.leaf) refs =
  let count = ref 0 in
  Array.iter
    (fun x ->
      let l' = Tree.leaf_at t x in
      if l'.Tree.id = l.Tree.id then incr count)
    refs;
  !count

let alc_register t refs =
  if t.alc_epoch = 0 || not (refs == t.alc_refs) then begin
    Metrics.incr m_alc_reinits;
    t.alc_refs <- refs;
    t.alc_epoch <- t.alc_epoch + 1;
    Array.iter (fun p -> Tree.alc_init p ~refs ~epoch:t.alc_epoch) t.particles
  end

(* Fast path: the per-leaf caches carry both factors of the ALC term —
   [members] gives the reference count, [evr] the expected variance
   reduction — so scoring a candidate is one root-to-leaf descent per
   particle with no hashing and no sufficient-statistics math. *)
let alc_scores_fast t ~candidates ~refs =
  alc_register t refs;
  let epoch = t.alc_epoch in
  let nrefs = float_of_int (max 1 (Array.length refs)) in
  let n = Array.length t.particles in
  let nc = Array.length candidates in
  let scores = Array.make nc 0.0 in
  let score_range lo hi =
    for ci = lo to hi - 1 do
      let c = candidates.(ci) in
      let score = ref 0.0 in
      for i = 0 to n - 1 do
        let l = Tree.leaf_at t.particles.(i) c in
        let count =
          if l.Tree.m_epoch = epoch then Array.length l.Tree.members
          else stale_leaf_count t.particles.(i) l refs
        in
        if count > 0 then begin
          let reduction = Float.min l.Tree.evr variance_cap in
          score := !score +. (t.weights.(i) *. float_of_int count *. reduction)
        end
      done;
      scores.(ci) <- !score /. nrefs
    done
  in
  (match use_pool t ~work:(n * nc) ~min_work:alc_par_min_work with
  | Some pool ->
      ignore
        (Pool.map
           ~label:(fun i -> Printf.sprintf "alc %d" i)
           pool
           (fun (lo, hi) -> score_range lo hi)
           (chunk_ranges ~chunks:(4 * Pool.jobs pool) nc))
  | None -> score_range 0 nc);
  scores

let alc_scores t ~candidates ~refs =
  Trace.with_span ~phase:"alc" ~name:"surrogate.alc" @@ fun () ->
  Metrics.incr m_alc_calls;
  Metrics.add m_alc_scores
    (Array.length candidates * Array.length t.particles);
  alc_scores_fast t ~candidates ~refs

type stats = {
  particles : int;
  mean_leaves : float;
  max_depth : int;
  depth_histogram : int array;
  split_frequencies : float array;
}

let stats (t : t) =
  let n = Array.length t.particles in
  let per = Array.map Tree.stats t.particles in
  let max_depth =
    Array.fold_left (fun acc (s : Tree.stats) -> max acc s.depth) 0 per
  in
  let depth_histogram = Array.make (max_depth + 1) 0 in
  Array.iter
    (fun (s : Tree.stats) ->
      depth_histogram.(s.depth) <- depth_histogram.(s.depth) + 1)
    per;
  let dim = match per with [||] -> 0 | _ -> Array.length per.(0).split_counts in
  let split_totals = Array.make dim 0 in
  Array.iter
    (fun (s : Tree.stats) ->
      Array.iteri
        (fun d c -> split_totals.(d) <- split_totals.(d) + c)
        s.split_counts)
    per;
  let all_splits = Array.fold_left ( + ) 0 split_totals in
  let split_frequencies =
    if all_splits = 0 then Array.make dim 0.0
    else
      Array.map
        (fun c -> float_of_int c /. float_of_int all_splits)
        split_totals
  in
  let total_leaves =
    Array.fold_left (fun acc (s : Tree.stats) -> acc + s.n_leaves) 0 per
  in
  {
    particles = n;
    mean_leaves = float_of_int total_leaves /. float_of_int (max 1 n);
    max_depth;
    depth_histogram;
    split_frequencies;
  }

let mean_n_leaves t = (stats t).mean_leaves
