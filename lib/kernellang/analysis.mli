(** Static analysis of (transformed) kernels for the machine cost model.

    The analysis reduces a kernel to a tree of {!loop_node}s annotated with
    average trip counts and, for the array accesses of each loop body,
    the streams the machine model prices: accesses grouped by array and by
    the affine stride of their flattened element offset with respect to
    each live loop index.  Bounds that depend on enclosing indices
    (triangular loops, tile edges) are handled by evaluating them with
    enclosing indices bound to their mid-range value, giving average trip
    counts; this keeps the analysis a fast closed form, which matters
    because the autotuning experiments evaluate hundreds of thousands of
    configurations. *)

type stream = {
  array : string;
  coeffs : (string * float) list;
      (** Flat element-offset stride per unit increment of each loop index
          appearing in the subscripts, innermost index first.  Indices with
          zero coefficient are omitted. *)
  affine : bool;
      (** [false] when some subscript is not affine in the loop indices;
          such accesses are treated as worst-case (gather) by the machine
          model, and all of them share one stream per array. *)
  distinct : int;
      (** Number of distinct constant terms of the flattened offset (all
          live indices at zero) among the stream's accesses, under
          [Float.compare]: the translated copies of one access that
          unrolling produces, each a separate address. *)
  mult : int;  (** Accesses per iteration. *)
}
(** The accesses of one loop body that share an array, coefficients and
    affinity. *)

type loop_node = {
  index : string;
  trips : float;  (** Average trip count (>= 0). *)
  step : int;
  streams : stream list;
      (** Streams of the statements directly under this loop, excluding
          statements inside nested loops, in descending
          [(array, coeffs, affine)] order under [String.compare],
          [Float.compare] on each coefficient (after its index name) and
          [Bool.compare]: the order the machine model sums them in. *)
  flops : float;  (** Float operations per iteration in direct statements. *)
  iops : float;  (** Integer (subscript) operations per iteration. *)
  stmts : float;  (** Direct assignment count per iteration. *)
  children : loop_node list;
}

type t = {
  roots : loop_node list;
  array_elements : (string * float) list;
      (** Total element count per declared array. *)
  straightline_stmts : float;
      (** Assignments outside any loop (usually initialisation). *)
}

val total_iterations : t -> float
(** Sum over all loops of (times entered × trips): total loop iterations
    executed, the quantity the per-iteration loop overhead multiplies. *)

val total_flops : t -> float
val total_memory_accesses : t -> float

val innermost_code_size : loop_node -> float
(** Rough instruction count of one iteration of this loop including nested
    loops' bodies — the quantity compared against the I-cache capacity to
    model unrolling's code bloat. *)

val analyze : ?param_overrides:(string * int) list -> Ast.kernel -> t
(** Analyze a kernel under its default (or overridden) problem-size
    parameters. *)
