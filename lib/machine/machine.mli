(** Analytic machine model.

    Plays the role of the paper's Core i7-4770K + gcc testbed: given the
    static summary of a (transformed) kernel, it estimates a deterministic
    "true" runtime in seconds.  The model captures exactly the effects the
    tuned transformations trade off:

    - {b loop overhead}: every loop iteration pays a compare/increment/
      branch cost, so unrolling helps by shrinking iteration counts;
    - {b cache behaviour}: per-access miss costs from a reuse-scope
      analysis — for each access, the largest enclosing loop whose working
      set fits in a cache level determines where its misses are served, so
      tiling helps by shrinking working sets;
    - {b register pressure}: too many simultaneously-live values in an
      innermost body cause spills, so aggressive unroll-and-jam eventually
      backfires;
    - {b instruction-cache pressure}: unrolled bodies that outgrow the
      I-cache pay a per-iteration penalty, producing the climb-then-plateau
      runtime shape the paper's Figure 2 shows;
    - {b issue width}: straight-line work is throughput-limited.

    The model is deliberately analytic (no trace simulation): autotuning
    experiments evaluate hundreds of thousands of configurations. *)

type cache_level = {
  size_bytes : float;
  line_bytes : float;
  latency_cycles : float;
}

type config = {
  l1 : cache_level;
  l2 : cache_level;
  memory_latency : float;  (** Cycles to serve an L2 miss. *)
  frequency_ghz : float;
  issue_width : float;  (** Instructions retired per cycle. *)
  num_fp_registers : int;
  icache_bytes : float;
  icache_penalty : float
      (** Extra cycles per innermost iteration and per I-cache-size excess
          factor once the unrolled body overflows the I-cache. *);
  flop_cycles : float;
  iop_cycles : float;
  loop_overhead_cycles : float;  (** Per loop iteration. *)
  loop_setup_cycles : float;  (** Per loop entry. *)
  spill_cycles : float;  (** Per excess live value per iteration. *)
  element_bytes : float;  (** Array element size (doubles). *)
  bytes_per_instruction : float;  (** For I-cache footprint estimation. *)
}

val default : config
(** Loosely modeled on the paper's i7-4770K: 32 KB L1 / 256 KB L2, 3.4 GHz,
    4-wide issue, 16 architectural FP registers. *)

type breakdown = {
  compute_cycles : float;
  memory_cycles : float;
  overhead_cycles : float;
  spill_penalty_cycles : float;
  icache_penalty_cycles : float;
  total_cycles : float;
  seconds : float;
}

val estimate : config -> Altune_kernellang.Analysis.t -> breakdown
(** Full cost breakdown for an analyzed kernel. *)

val runtime_seconds : config -> Altune_kernellang.Analysis.t -> float
(** [(estimate cfg a).seconds]. *)

val compile_seconds : config -> Altune_kernellang.Ast.kernel -> float
(** Compilation-time model: a fixed invocation cost plus a per-AST-node
    cost, so heavily unrolled variants take visibly longer to "compile",
    as they do with a real compiler. *)

val ast_size : Altune_kernellang.Ast.kernel -> int
(** Node count of a kernel, the compile-time driver. *)

type evaluation = { runtime : float; compile : float }
(** Both priced quantities of one transformed kernel — what a tuner needs
    per candidate, in one call. *)

val evaluate : config -> Altune_kernellang.Ast.kernel -> evaluation
(** [{runtime = runtime_seconds cfg (Analysis.analyze k); compile =
    compile_seconds cfg k}].  Pure, so batch callers may fan kernels out
    across domains and keep slot-indexed results deterministic. *)
