(** Source-to-source loop transformations over the kernel IR.

    These are the optimization decisions whose parameters the active
    learner tunes: per-loop unroll factors, cache-tile sizes (strip-mine +
    interchange), and register tiling (unroll-and-jam).  Every transformation
    is semantics-preserving for the programs it accepts; legality is checked
    structurally and violations are reported as {!error} rather than
    silently producing wrong code. *)

type error =
  | Loop_not_found of string
  | Bad_factor of string * int  (** loop, offending factor *)
  | Not_perfectly_nested of string * string  (** outer, inner *)
  | Unsafe_jam of string
      (** Unroll-and-jam refused: sinking the jammed loop innermost would
          reverse a dependence ({!Dependence.jam_legal}). *)
  | Unsafe_interchange of string * string
      (** Interchange of outer and inner refused: swapping them would
          reverse a dependence ({!Dependence.interchange_legal}). *)
  | Name_clash of string  (** Generated index name already in use. *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val unroll :
  index:string -> factor:int -> Ast.kernel -> (Ast.kernel, error) result
(** [unroll ~index ~factor k] replicates the body of loop [index] [factor]
    times, multiplying its step, and appends a remainder loop covering trip
    counts not divisible by [factor].  [factor = 1] is the identity. *)

val strip_mine :
  index:string ->
  tile:int ->
  tile_index:string ->
  Ast.kernel ->
  (Ast.kernel, error) result
(** [strip_mine ~index ~tile ~tile_index k] splits loop [index] into an
    outer loop [tile_index] over tile origins and an inner loop [index]
    over at most [tile] iterations.  Always legal. *)

val interchange :
  outer:string -> inner:string -> Ast.kernel -> (Ast.kernel, error) result
(** Swap two adjacent loops of a perfect nest ([inner] must be the entire
    body of [outer], and its bounds must not depend on [outer]'s index).
    Refused with [Unsafe_interchange] unless
    {!Dependence.interchange_legal} allows the swap. *)

val tile_nest :
  (string * int) list -> Ast.kernel -> (Ast.kernel, error) result
(** [tile_nest [(i1, t1); (i2, t2); ...] k] rectangularly tiles the perfect
    nest formed by the listed loops (outermost first): each loop is
    strip-mined by its tile size and all tile loops are hoisted above all
    point loops.  A tile size of 1 leaves that loop untouched.  Tile-loop
    indices are derived as ["<index>_t"]. *)

val unroll_and_jam :
  index:string -> factor:int -> Ast.kernel -> (Ast.kernel, error) result
(** Register tiling: unroll the non-innermost loop [index] by [factor] and
    fuse the copies of its (single, perfectly nested) inner loop.  Refused
    with [Unsafe_jam] unless {!Dependence.jam_legal} allows sinking
    [index] innermost.  A remainder loop handles leftover iterations. *)
