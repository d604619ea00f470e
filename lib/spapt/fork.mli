(** Transformation-prefix trie: compilation forking for recipe batches.

    Sibling candidates in an autotuning batch usually share a recipe
    prefix (same tile nest, different unroll factor).  Re-running
    {!Altune_kernellang.Verify.apply_steps} from scratch re-transforms
    that shared prefix once per sibling; the trie pays for each distinct
    prefix once.  Nodes are keyed by the normalized step list
    ({!Altune_kernellang.Verify.normalize_steps}, edges labelled with
    {!Altune_kernellang.Verify.step_key}); each node caches the kernel
    transformed up to that prefix.  Resolving a recipe walks to the
    deepest cached ancestor and applies only the suffix.

    The trie is not on {!Spapt}'s evaluation path: resolving a recipe is
    a small share of an evaluation (analysis and pricing dominate), while
    a cached kernel per prefix costs heap for as long as the trie lives
    (DESIGN.md §11).  It is kept as a library module measured against
    that from-scratch path: [altune check --fork-audit] and the bench
    [--fork] section compare the two.

    Determinism contract: a resolved kernel is {e byte-identical} to
    from-scratch application — cached nodes were produced by the same
    [apply_step] calls on the same ASTs, and normalization only drops
    steps {!Altune_kernellang.Transform} treats as exact no-ops.

    Thread safety: all trie state is guarded by one mutex; step
    application runs outside the lock and inserts first-wins
    (concurrent inserts compute identical values).  Safe to share
    across {!Altune_exec.Pool} tasks. *)

module Ast = Altune_kernellang.Ast
module Verify = Altune_kernellang.Verify
module Transform = Altune_kernellang.Transform

type t

val create : ?max_nodes:int -> Ast.kernel -> t
(** A trie rooted at the untransformed kernel.  At most [max_nodes]
    (default 4096) prefixes are cached; past the cap, resolution still
    works but stops inserting (no eviction: trie nodes are shared
    ancestors, evicting one would orphan its subtree). *)

val root_kernel : t -> Ast.kernel

val resolve :
  t -> Verify.step list -> (Ast.kernel, Transform.error) result
(** The kernel with the steps applied, byte-identical to
    [Verify.apply_steps (Verify.normalize_steps steps) (root_kernel t)]
    (and hence to applying the raw steps, by the normalization
    contract).  Reuses the deepest cached prefix and caches every new
    prefix on the way down. *)

type stats = {
  nodes : int;  (** Cached prefixes, root excluded. *)
  resolves : int;  (** [resolve] walks performed. *)
  steps_reused : int;  (** Steps satisfied by a cached node. *)
  steps_applied : int;  (** Steps applied (and cached) on a miss. *)
}

val stats : t -> stats

val reuse_rate : stats -> float
(** [steps_reused / (steps_reused + steps_applied)]; 0 before any
    resolution. *)
