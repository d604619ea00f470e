module Rng = Altune_prng.Rng

(* The observation store is struct-of-arrays: one flat float array for
   every x vector (row-major, stride [dim]) and one for the responses.
   Particles index into it, so a leaf is a list of small ints and the
   per-observation payload lives in exactly two cache-friendly arrays
   instead of one boxed row per point. *)
type store = {
  dim : int;
  mutable xs : float array;  (* flat, length >= size * dim *)
  mutable ys : float array;
  mutable size : int;
  next_id : int ref;  (* shared leaf-id supply *)
  mutable scratch : int array;
      (* Split-sampling workspace: updates are sequential (they share one
         rng stream), so one buffer per store suffices and the per-update
         [Array.of_list] disappears. *)
}

let make_store ~dim =
  {
    dim;
    xs = Array.make (16 * dim) 0.0;
    ys = Array.make 16 0.0;
    size = 0;
    next_id = ref 0;
    scratch = Array.make 64 0;
  }

let store_size st = st.size

let append st x y =
  if Array.length x <> st.dim then
    invalid_arg "Tree.append: wrong feature dimension";
  if st.size = Array.length st.ys then begin
    let cap = 2 * st.size in
    let xs = Array.make (cap * st.dim) 0.0 and ys = Array.make cap 0.0 in
    Array.blit st.xs 0 xs 0 (st.size * st.dim);
    Array.blit st.ys 0 ys 0 st.size;
    st.xs <- xs;
    st.ys <- ys
  end;
  Array.blit x 0 st.xs (st.size * st.dim) st.dim;
  st.ys.(st.size) <- y;
  st.size <- st.size + 1;
  st.size - 1

(* Single-coordinate access into the flat store — the hot-path read. *)
let store_get st i d = Array.unsafe_get st.xs ((i * st.dim) + d)
let store_x st i = Array.sub st.xs (i * st.dim) st.dim
let store_y st i = st.ys.(i)

(* Per-leaf caches.  [pred] is the leaf's posterior predictive, read by
   every prediction and every particle reweighting, and [evr] the raw
   expected variance reduction of one more observation in this leaf (see
   Dynatree.alc_scores).  Both are pure functions of the sufficient
   statistics and the prior, so they are computed once at leaf creation
   and never invalidated.  [members]/[m_epoch] cache which
   reference points of the registered reference set fall inside the
   leaf's region; valid only while [m_epoch] equals the ensemble's
   current registration epoch.  Leaves are immutable except for these
   cache fields, and nodes are shared freely across particles (a shared
   leaf has the same region and data in every particle, so the cached
   values agree by construction). *)
type leaf = {
  id : int;
  indices : int list;
  suff : Leaf_model.suff;
  pred : Leaf_model.predictive;
  evr : float;
  mutable m_epoch : int;
  mutable members : int array;
}

type node =
  | Leaf of leaf
  | Split of { dim : int; threshold : float; left : node; right : node }

type params = {
  alpha : float;
  beta : float;
  prior : Leaf_model.prior;
  min_leaf : int;
}

let default_params =
  { alpha = 0.95; beta = 2.0; prior = Leaf_model.default_prior; min_leaf = 2 }

type stats = { n_leaves : int; depth : int; split_counts : int array }

(* [tstats] is maintained incrementally by [update]: stay keeps it, grow
   and prune adjust it in O(dim).  [Dynatree.stats] aggregates it on
   every telemetry emission, so recomputing by traversal here would make
   event emission O(total nodes) per eval point. *)
type t = { params : params; store : store; root : node; tstats : stats }

let fresh_id store =
  let id = !(store.next_id) in
  incr store.next_id;
  id

(* Accumulate in scalar locals (same op order as folding [add_suff], so
   bit-identical results) and allocate the record once at the end instead
   of once per element. *)
let suff_of_indices store indices =
  let n = ref 0 and sum = ref 0.0 and sumsq = ref 0.0 in
  List.iter
    (fun i ->
      let y = store_y store i in
      incr n;
      sum := !sum +. y;
      sumsq := !sumsq +. (y *. y))
    indices;
  { Leaf_model.n = !n; sum = !sum; sumsq = !sumsq }

let no_members = [||]

(* [make_leaf_with] takes a precomputed suff whose value must equal
   [suff_of_indices store indices] — the grow path computes both sides'
   statistics while weighing the move and reuses them here. *)
let make_leaf_with params store indices suff =
  {
    id = fresh_id store;
    indices;
    suff;
    pred = Leaf_model.predict params.prior suff;
    evr = Leaf_model.expected_variance_reduction params.prior suff;
    m_epoch = 0;
    members = no_members;
  }

let make_leaf params store indices =
  make_leaf_with params store indices (suff_of_indices store indices)

let singleton params store indices =
  {
    params;
    store;
    root = Leaf (make_leaf params store indices);
    tstats =
      { n_leaves = 1; depth = 0; split_counts = Array.make store.dim 0 };
  }

let p_split params depth =
  params.alpha *. ((1.0 +. float_of_int depth) ** -.params.beta)

let rec find_leaf node x =
  match node with
  | Leaf l -> l
  | Split s ->
      if x.(s.dim) <= s.threshold then find_leaf s.left x
      else find_leaf s.right x

let leaf_at t x = find_leaf t.root x

let predict t x = (find_leaf t.root x).pred

(* The same density as [Leaf_model.log_predictive_density prior suff y],
   which evaluates the Student-t at [Leaf_model.predict prior suff]. *)
let log_predictive t x y =
  let { Leaf_model.mean; df; scale; _ } = (find_leaf t.root x).pred in
  Altune_stats.Distributions.log_student_t_pdf ~mu:mean ~scale ~df y

let leaf_stats_at t x =
  let l = find_leaf t.root x in
  (l.id, l.suff)

let leaf_ref_counts t refs =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun x ->
      let l = find_leaf t.root x in
      Hashtbl.replace tbl l.id
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl l.id)))
    refs;
  tbl

let n_leaves t = t.tstats.n_leaves
let depth t = t.tstats.depth

let rec count_obs = function
  | Leaf l -> l.suff.n
  | Split s -> count_obs s.left + count_obs s.right

let n_observations t = count_obs t.root

let stats t = t.tstats

(* Full-traversal recomputation of [tstats] — the pre-incremental
   implementation, kept as the differential-testing oracle and as the
   slow path after a prune that removes the deepest leaf. *)
let recompute_stats t =
  let split_counts = Array.make t.store.dim 0 in
  let leaves = ref 0 in
  let rec go node d depth_acc =
    match node with
    | Leaf _ ->
        incr leaves;
        max d depth_acc
    | Split s ->
        split_counts.(s.dim) <- split_counts.(s.dim) + 1;
        go s.right (d + 1) (go s.left (d + 1) depth_acc)
  in
  let depth = go t.root 0 0 in
  { n_leaves = !leaves; depth; split_counts }

(* Sample a candidate split of [indices]: a uniformly chosen dimension and
   a threshold at the midpoint between the values of two distinct data
   points in that dimension.  O(|leaf|) — the update loop calls this for
   one leaf of every particle on every observation, so it must not sort
   and it must not allocate: the indices go through the store's scratch
   buffer and the two sides' sufficient statistics come out of one
   ordered pass (the same accumulation order a fold over the partition
   lists would use, so the values are bit-identical to the old
   partition-then-fold implementation).  The partition lists themselves
   are built only if the grow move wins (see [update]).  Returns the
   proposal if both sides meet the minimum leaf size; [None] (no grow
   proposal this step) otherwise. *)
let sample_split ~rng params store ~n indices =
  (* [n] is the length of [indices], known from the leaf's [suff.n] — no
     traversal needed to count, and none to fill either when the leaf is
     too small to split. *)
  if n < 2 * params.min_leaf then None
  else begin
    if n > Array.length store.scratch then
      store.scratch <- Array.make (2 * n) 0;
    let arr = store.scratch in
    let k = ref 0 in
    List.iter
      (fun i ->
        arr.(!k) <- i;
        incr k)
      indices;
    let d = Rng.int rng store.dim in
    let value i = store_get store arr.(i) d in
    (* A few attempts to find two distinct values in the chosen dim. *)
    let rec distinct_pair attempts =
      if attempts = 0 then None
      else begin
        let a = value (Rng.int rng n) and b = value (Rng.int rng n) in
        if a <> b then Some (Float.min a b, Float.max a b)
        else distinct_pair (attempts - 1)
      end
    in
    match distinct_pair 8 with
    | None -> None
    | Some (lo, hi) ->
        let threshold = 0.5 *. (lo +. hi) in
        let nl = ref 0 and sum_l = ref 0.0 and sumsq_l = ref 0.0 in
        let nr = ref 0 and sum_r = ref 0.0 and sumsq_r = ref 0.0 in
        for j = 0 to n - 1 do
          let i = arr.(j) in
          let y = store_y store i in
          if store_get store i d <= threshold then begin
            incr nl;
            sum_l := !sum_l +. y;
            sumsq_l := !sumsq_l +. (y *. y)
          end
          else begin
            incr nr;
            sum_r := !sum_r +. y;
            sumsq_r := !sumsq_r +. (y *. y)
          end
        done;
        if !nl >= params.min_leaf && !nr >= params.min_leaf then
          Some
            ( d,
              threshold,
              { Leaf_model.n = !nl; sum = !sum_l; sumsq = !sumsq_l },
              { Leaf_model.n = !nr; sum = !sum_r; sumsq = !sumsq_r } )
        else None
  end

(* Log-weight helpers for the three moves, local to the subtree around the
   target leaf. *)
let log1m_psplit params d = log1p (-.p_split params d)
let log_psplit params d = log (p_split params d)

type move =
  | Stay
  | Grow of int * float * Leaf_model.suff * Leaf_model.suff
      (* dim, threshold, left suff, right suff — the partition lists are
         rebuilt only when this move is actually applied *)
  | Prune

(* Gumbel-free categorical sampling over log weights. *)
let sample_logweights ~rng weights =
  let m = List.fold_left (fun acc (_, w) -> Float.max acc w) neg_infinity
      weights in
  let exps = List.map (fun (tag, w) -> (tag, exp (w -. m))) weights in
  let total = List.fold_left (fun acc (_, e) -> acc +. e) 0.0 exps in
  let u = Rng.float rng total in
  let rec pick acc = function
    | [] -> fst (List.hd (List.rev exps))
    | (tag, e) :: rest ->
        let acc = acc +. e in
        if u <= acc then tag else pick acc rest
  in
  pick 0.0 exps

(* What one [update] changed: the leaves displaced from this particle's
   tree (they may survive in other particles that share them) and the
   freshly built subtree that replaced them.  [Dynatree] uses this to
   reroute cached reference-set members through the new subtree instead
   of re-partitioning the whole reference set — the Gramacy & Taddy
   observation that a one-observation posterior update only touches the
   leaf path the observation lands in, made operational. *)
type delta = { d_removed : leaf list; d_subtree : node }

let rec count_leaves_node = function
  | Leaf _ -> 1
  | Split s -> count_leaves_node s.left + count_leaves_node s.right

let delta_new_leaves d = count_leaves_node d.d_subtree

let update ~rng t i =
  let params = t.params and store = t.store in
  let y = store_y store i in
  let x_at d = store_get store i d in
  let prior = params.prior in
  let lm = Leaf_model.log_marginal prior in
  (* Moves available at a leaf reached at [depth]; [prune_context] carries
     the sibling's data when the immediate sibling is also a leaf, which is
     the only configuration the dynamic tree prunes. *)
  let leaf_moves ~depth ~prune_context (suff : Leaf_model.suff) indices =
    let suff_with = Leaf_model.add_suff suff y in
    let stay_w = log1m_psplit params depth +. lm suff_with in
    let grow =
      match sample_split ~rng params store ~n:(suff.n + 1) (i :: indices) with
      | None -> []
      | Some (d, thr, suff_l, suff_r) ->
          let grow_w =
            log_psplit params depth
            +. log1m_psplit params (depth + 1)
            +. log1m_psplit params (depth + 1)
            +. lm suff_l
            +. lm suff_r
          in
          [ (Grow (d, thr, suff_l, suff_r), grow_w) ]
    in
    let prune =
      match prune_context with
      | None -> []
      | Some (sib_suff, _sib_indices) ->
          (* Compare full local posteriors of the parent subtree; the stay
             and grow weights get the parent-split and sibling factors. *)
          let common =
            log_psplit params (depth - 1)
            +. log1m_psplit params depth
            +. lm sib_suff
          in
          let prune_w =
            log1m_psplit params (depth - 1)
            +. lm (Leaf_model.merge_suff suff_with sib_suff)
            -. common
          in
          [ (Prune, prune_w) ]
    in
    sample_logweights ~rng ((Stay, stay_w) :: (grow @ prune))
  in
  (* Apply a chosen grow: partition the leaf's indices for real (same
     order [sample_split] scanned them in, so the precomputed suffs
     match) and build both child leaves without re-folding. *)
  let grown_node (l : leaf) d thr suff_l suff_r =
    let li, ri =
      List.partition (fun j -> store_get store j d <= thr) (i :: l.indices)
    in
    Split
      {
        dim = d;
        threshold = thr;
        left = Leaf (make_leaf_with params store li suff_l);
        right = Leaf (make_leaf_with params store ri suff_r);
      }
  in
  let add_to_leaf (l : leaf) =
    Leaf
      (make_leaf_with params store (i :: l.indices)
         (Leaf_model.add_suff l.suff y))
  in
  (* Stats bookkeeping: each move's effect on the cached shape record.
     [delta] is filled by the leaf-level handlers below. *)
  let delta = ref None in
  let set_delta removed subtree =
    delta := Some { d_removed = removed; d_subtree = subtree };
    subtree
  in
  let bump_split_counts d by =
    let sc = Array.copy t.tstats.split_counts in
    sc.(d) <- sc.(d) + by;
    sc
  in
  let stats = ref t.tstats in
  let rec go node depth =
    match node with
    | Leaf l -> (
        (* Root leaf: no prune possible. *)
        match leaf_moves ~depth ~prune_context:None l.suff l.indices with
        | Stay -> set_delta [ l ] (add_to_leaf l)
        | Grow (d, thr, suff_l, suff_r) ->
            stats :=
              {
                n_leaves = t.tstats.n_leaves + 1;
                depth = max t.tstats.depth (depth + 1);
                split_counts = bump_split_counts d 1;
              };
            set_delta [ l ] (grown_node l d thr suff_l suff_r)
        | Prune ->
            raise
              (Failure
                 (Printf.sprintf
                    "Tree.update: root leaf (%d obs, depth %d) proposed a \
                     prune, but it was offered no prune context — \
                     leaf_moves must never prune without a sibling"
                    (List.length l.indices) depth)))
    | Split s ->
        let goes_left = x_at s.dim <= s.threshold in
        let child = if goes_left then s.left else s.right in
        let sibling = if goes_left then s.right else s.left in
        let rebuilt new_child =
          if goes_left then Split { s with left = new_child }
          else Split { s with right = new_child }
        in
        (match child with
        | Split _ -> rebuilt (go child (depth + 1))
        | Leaf l -> (
            let prune_context =
              match sibling with
              | Leaf sl -> Some (sl.suff, sl.indices)
              | Split _ -> None
            in
            match
              leaf_moves ~depth:(depth + 1) ~prune_context l.suff l.indices
            with
            | Stay -> rebuilt (set_delta [ l ] (add_to_leaf l))
            | Grow (d, thr, suff_l, suff_r) ->
                stats :=
                  {
                    n_leaves = t.tstats.n_leaves + 1;
                    depth = max t.tstats.depth (depth + 2);
                    split_counts = bump_split_counts d 1;
                  };
                rebuilt (set_delta [ l ] (grown_node l d thr suff_l suff_r))
            | Prune ->
                let sl =
                  match sibling with
                  | Leaf sl -> sl
                  | Split _ ->
                      raise
                        (Failure
                           (Printf.sprintf
                              "Tree.update: prune of the leaf at depth %d \
                               (split dim %d, threshold %g) accepted \
                               against a Split sibling — prune moves are \
                               only offered when the sibling is a leaf"
                              (depth + 1) s.dim s.threshold))
                in
                stats :=
                  {
                    n_leaves = t.tstats.n_leaves - 1;
                    (* Provisional: corrected below when the pruned pair
                       was at the maximum depth. *)
                    depth = t.tstats.depth;
                    split_counts = bump_split_counts s.dim (-1);
                  };
                (* The merged leaf replaces the parent split [s] itself —
                   not the child slot — so the sibling leaf disappears
                   with it. *)
                set_delta [ l; sl ]
                  (Leaf
                     (make_leaf params store (i :: (l.indices @ sl.indices))))))
  in
  let root = go t.root 0 in
  let tstats = !stats in
  let t' = { t with root; tstats } in
  (* A prune can lower the maximum depth only if the pruned leaves sat at
     it; prunes are rare, so the occasional traversal is cheap and keeps
     the cached depth exact. *)
  let t' =
    match !delta with
    | Some { d_removed = [ _; _ ]; _ } when tstats.depth = t.tstats.depth ->
        let rec max_depth node d =
          match node with
          | Leaf _ -> d
          | Split s -> max (max_depth s.left (d + 1)) (max_depth s.right (d + 1))
        in
        let real = max_depth root 0 in
        if real <> tstats.depth then { t' with tstats = { tstats with depth = real } }
        else t'
    | _ -> t'
  in
  match !delta with
  | Some d -> (t', d)
  | None ->
      raise
        (Failure
           (Printf.sprintf
              "Tree.update: observation %d traversed the tree without \
               replacing a leaf — every update must end in exactly one \
               Stay/Grow/Prune move"
              i))

(* --- Reference-set member caches (incremental ALC support) ------------ *)

(* Route [members] (indices into [refs]) down [node], filling every leaf's
   cache for [epoch].  Partition order is preserved; only the counts are
   consumed by scoring, but a stable order keeps reroutes deterministic. *)
let rec fill_members refs ~epoch node members =
  match node with
  | Leaf l ->
      l.members <- members;
      l.m_epoch <- epoch
  | Split s ->
      let n = Array.length members in
      let goes_left m = refs.(m).(s.dim) <= s.threshold in
      let nl = ref 0 in
      for k = 0 to n - 1 do
        if goes_left members.(k) then incr nl
      done;
      let left = Array.make !nl 0 and right = Array.make (n - !nl) 0 in
      let il = ref 0 and ir = ref 0 in
      for k = 0 to n - 1 do
        let m = members.(k) in
        if goes_left m then begin
          left.(!il) <- m;
          incr il
        end
        else begin
          right.(!ir) <- m;
          incr ir
        end
      done;
      fill_members refs ~epoch s.left left;
      fill_members refs ~epoch s.right right

let alc_init t ~refs ~epoch =
  fill_members refs ~epoch t.root (Array.init (Array.length refs) Fun.id)

(* Reroute the members of the displaced leaves through the replacement
   subtree.  Falls back to a full re-partition of the particle if any
   displaced cache is stale — that indicates a registration bug, but a
   correct slow answer beats a crash mid-run. *)
let alc_apply t d ~refs ~epoch =
  if List.for_all (fun (l : leaf) -> l.m_epoch = epoch) d.d_removed then begin
    let members =
      match d.d_removed with
      | [ l ] -> l.members
      | ls -> Array.concat (List.map (fun (l : leaf) -> l.members) ls)
    in
    fill_members refs ~epoch d.d_subtree members
  end
  else alc_init t ~refs ~epoch
