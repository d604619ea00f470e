(** Abstract syntax for the loop-nest kernel IR.

    Kernels are the computational substrate of this reproduction: each SPAPT
    benchmark is expressed as a [kernel] value (either built programmatically
    or parsed from the textual DSL, see {!Parser}), optimization decisions
    are source-to-source transformations over it (see {!Transform}), and the
    machine model consumes static summaries of the transformed nest (see
    {!Analysis}).

    Index computations are integer-valued; array elements and scalar
    accumulators are floats.  Loop index variables are required to be unique
    within a kernel so that transformations can address loops by index name,
    mirroring the paper's "unroll factor for loop i1" phrasing. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** Float division. *)
  | Idiv  (** Truncated integer division. *)
  | Mod
  | Min
  | Max

type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Int_lit of int
  | Float_lit of float
  | Var of string  (** Scalar variable or loop index. *)
  | Index of string * expr list  (** Array element reference. *)
  | Binop of binop * expr * expr
  | Neg of expr
  | Sqrt of expr

type cond =
  | Cmp of cmpop * expr * expr
  | And of cond * cond
  | Or of cond * cond
  | Not of cond

type lhs = Scalar_lhs of string | Array_lhs of string * expr list

type stmt =
  | Assign of lhs * expr
  | Seq of stmt list
  | For of loop
  | If of cond * stmt * stmt option

and loop = {
  index : string;  (** Loop index variable, unique within the kernel. *)
  lo : expr;  (** Inclusive lower bound. *)
  hi : expr;  (** Inclusive upper bound. *)
  step : int;  (** Positive constant stride. *)
  body : stmt;
}

type array_decl = {
  array_name : string;
  dims : expr list;  (** Dimension extents, in terms of kernel parameters. *)
}

type kernel = {
  kernel_name : string;
  params : (string * int) list;
      (** Problem-size parameters with default values. *)
  arrays : array_decl list;
  scalars : string list;  (** Float scalar temporaries, initialised to 0. *)
  body : stmt;
}

val seq : stmt list -> stmt
(** Flattens nested sequences and drops empty ones. *)

val free_vars : expr -> string list
(** Scalar / index variables referenced by an expression, without
    duplicates. *)

val loop_indices : stmt -> string list
(** Index variables of all loops in the statement, outermost first
    (pre-order). *)

val find_loop : stmt -> string -> loop option
(** [find_loop s index] is the loop with the given index variable. *)

val subst : var:string -> by:expr -> stmt -> stmt
(** Capture-avoiding-enough substitution of a loop index by an expression:
    loops binding [var] shadow it. *)

val subst_expr : var:string -> by:expr -> expr -> expr

type validation_error =
  | Duplicate_loop_index of string
  | Unbound_variable of string
  | Unknown_array of string
  | Arity_mismatch of string * int * int
      (** array, declared rank, used rank *)
  | Nonpositive_step of string

val pp_validation_error : Format.formatter -> validation_error -> unit

val validate : kernel -> (unit, validation_error) result
(** Structural well-formedness: loop indices unique, every variable bound
    (parameter, scalar, or enclosing loop index), arrays declared and used
    at their declared rank, steps positive. *)
