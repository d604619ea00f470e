(** Data-dependence analysis over loop nests.

    Computes the flow (read-after-write), anti (write-after-read) and
    output (write-after-write) dependences carried by the loops of a
    kernel, with distance/direction information for affine subscript
    pairs, and answers legality questions over them ({!Transform}'s cache
    tiling and unroll-and-jam ask the last two; plain unrolling needs
    none):

    - {!carried_by}: does any dependence have a non-[=] direction at a
      given loop — i.e. is the loop parallel?
    - {!interchange_legal}: would swapping two nest levels reverse a
      dependence (produce a [(<, >)] leading pair)?
    - {!jam_legal}: is unroll-and-jam of a loop safe — equivalent to the
      loop being interchangeable inward past its immediate inner loop?

    Subscript pairs are tested with standard conservative ZIV/SIV tests
    (Banerjee-style): exact for the equal-coefficient single-index
    subscripts produced by this IR's kernels, conservative ("maybe
    dependent, any direction") otherwise. *)

type direction = Lt | Eq | Gt | Star  (** [Star] = unknown/any. *)

type kind = Flow | Anti | Output

type dependence = {
  kind : kind;
  array : string;
  directions : (string * direction) list;
      (** Per enclosing loop (outermost first), the direction of the
          dependence: source iteration relative to sink iteration. *)
}

val pp_dependence : Format.formatter -> dependence -> unit

val affine_view :
  loop_indices:string list -> Ast.expr -> ((string * int) list * int) option
(** [affine_view ~loop_indices e] is [Some (coeffs, constant)] when [e] is
    affine in the listed loop indices (variables outside the list make the
    expression non-affine: they are opaque to subscript analysis), [None]
    otherwise.  Shared with {!Lint}'s affine-access classification. *)

val dependences : Ast.kernel -> dependence list
(** All loop-carried or loop-independent dependences between array
    accesses in the kernel, one entry per (access pair, array).
    Scalar dependences are reported with [array] = the scalar name and
    all-[Star] directions (scalars defeat analysis conservatively). *)

val carried_by : Ast.kernel -> string -> dependence list
(** Dependences carried by the named loop: direction at that loop is
    [Lt], [Gt] or [Star] (and [Eq] at all enclosing outer loops). *)

val parallel : Ast.kernel -> string -> bool
(** [parallel k loop] is [true] when no dependence is carried by [loop] —
    its iterations can execute in any order. *)

val interchange_legal : Ast.kernel -> outer:string -> inner:string -> bool
(** Conservative: [true] only when no dependence has direction pair
    [(Lt, Gt)] (or involving [Star]) at the two loops. *)

val jam_legal : Ast.kernel -> string -> bool
(** Unroll-and-jam of [loop] is safe when interchanging [loop] with every
    loop nested inside it down to the innermost level is legal. *)
