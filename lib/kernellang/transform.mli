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
      (** Unroll-and-jam refused: some array write does not depend on the
          jammed index, so copies could collide. *)
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
    body of [outer], and its bounds must not depend on [outer]'s index). *)

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
    with [Unsafe_jam] unless every array write under the loop uses [index]
    in its subscripts.  A remainder loop handles leftover iterations. *)

val skew :
  outer:string -> inner:string -> factor:int -> Ast.kernel ->
  (Ast.kernel, error) result
(** Loop skewing: reindex the perfectly nested [inner] loop as
    [inner' = inner + factor * outer].  A unimodular change of basis —
    always semantics-preserving — whose point is to make interchange legal
    on wavefront-style recurrences (a [(<, >)] dependence becomes
    [(<, <=)] once skewed far enough). *)

val reverse : index:string -> Ast.kernel -> (Ast.kernel, error) result
(** Iterate the loop backwards (via [i -> lo + hi - i]).  Refused with
    [Unsafe_jam] when the loop carries a dependence (reversal flips its
    direction). *)

val fuse :
  first:string -> second:string -> Ast.kernel -> (Ast.kernel, error) result
(** Fuse two adjacent sibling loops with identical bounds and step into
    one loop running both bodies.  Conservatively refused (as
    [Unsafe_jam first]) unless every dependence between the two bodies is
    iteration-wise aligned (direction [=] at the fused index), which rules
    out the classic fusion-preventing backward dependence. *)

val distribute : index:string -> Ast.kernel -> (Ast.kernel, error) result
(** Split a loop whose body is a sequence into one loop per statement
    (loop fission).  Conservatively refused unless all dependences between
    different body statements are aligned ([=]) at the loop index, so no
    cross-statement value flows between iterations get reordered. *)
