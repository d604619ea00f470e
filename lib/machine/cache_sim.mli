(** Trace-driven set-associative cache simulation.

    The analytic model in {!Machine} estimates miss counts in closed form;
    this simulator computes them exactly for a concrete access trace
    (LRU replacement, inclusive two-level hierarchy).  Its role in the
    project is validation: the test suite replays small kernels through
    the instrumented interpreter and checks that the analytic model's
    qualitative calls (tiling reduces L1 misses, strides defeat lines)
    agree with ground truth.  It is too slow to sit inside the autotuning
    loop — which is exactly why the analytic model exists. *)

type cache

val create_cache : size_bytes:int -> line_bytes:int -> ways:int -> cache
(** Raises [Invalid_argument] unless sizes are positive, powers of two,
    and consistent ([ways] divides the line count). *)

val cache_access : cache -> int -> bool
(** [cache_access c address] touches the line holding [address] and
    reports whether it hit; LRU state updates either way. *)

val cache_reset : cache -> unit

type stats = {
  accesses : int;
  l1_misses : int;
  l2_misses : int;
}

type hierarchy

val create_hierarchy :
  ?l1_bytes:int ->
  ?l2_bytes:int ->
  ?line_bytes:int ->
  ?l1_ways:int ->
  ?l2_ways:int ->
  unit ->
  hierarchy
(** Defaults mirror {!Machine.default}: 32 KB 8-way L1, 256 KB 8-way L2,
    64-byte lines. *)

val hierarchy_access : hierarchy -> int -> unit
val hierarchy_stats : hierarchy -> stats

val simulate_kernel :
  ?param_overrides:(string * int) list ->
  hierarchy ->
  Altune_kernellang.Ast.kernel ->
  stats
(** Run a kernel through the reference interpreter with every array
    access fed to the hierarchy.  Arrays of 8-byte elements are laid out
    contiguously in a single address space, each base aligned to a line
    boundary. *)
