(** Static well-formedness verifier for kernels.

    {!Ast.validate} answers the minimal structural question ("can this
    kernel be interpreted at all?"); the linter goes further and checks
    the properties the data-generation pipeline silently relies on:

    - scoping: every variable bound, no duplicate loop indices or
      declarations, no assignment to a loop index or parameter, no
      shadowing of parameters/scalars by loop indices;
    - types and shapes: subscripts, loop bounds, and array extents must be
      integer-valued (no float literals, float division, square roots,
      array elements, or float scalars in index positions), arrays used at
      their declared rank;
    - loop-bound sanity: positive steps, detection of loops whose constant
      bounds make them empty;
    - bounds: interval analysis of every subscript against the declared
      extents under the (possibly overridden) problem-size parameters —
      accesses that are definitely out of bounds are errors, accesses that
      may go out of bounds are warnings;
    - dataflow: arrays that are read but never written (kernel inputs) and
      written but never read (kernel outputs) are reported as notes,
      declared-but-unused arrays as warnings;
    - affine classification: every array access whose subscripts are not
      affine in the enclosing loop indices is reported as a note (the
      machine model treats such accesses as worst-case gathers).

    Diagnostics are structured values carrying a location (the chain of
    enclosing loops plus the statement's textual ordinal) and a snippet of
    the offending expression, so a failed check in a 10k-configuration
    audit pinpoints the exact access. *)

type severity = Error | Warning | Info

type loc = {
  loops : string list;  (** Enclosing loop indices, outermost first. *)
  stmt : int;
      (** Textual ordinal of the enclosing assignment/loop/branch
          statement, counted from 1; 0 for declaration-level
          diagnostics. *)
  detail : string;  (** Pretty-printed snippet of the offending term. *)
}

type diagnostic = {
  severity : severity;
  code : string;
      (** Stable kebab-case identifier of the check, e.g.
          ["out-of-bounds"], ["non-affine-access"]. *)
  loc : loc;
  message : string;
}

val pp_severity : Format.formatter -> severity -> unit
val pp_loc : Format.formatter -> loc -> unit
val pp_diagnostic : Format.formatter -> diagnostic -> unit
val diagnostic_to_string : diagnostic -> string

val lint :
  ?param_overrides:(string * int) list -> Ast.kernel -> diagnostic list
(** All diagnostics for the kernel, in textual order.  Bounds are checked
    under the kernel's default parameter values overridden by
    [param_overrides]. *)

val errors : diagnostic list -> diagnostic list
(** The [Error]-severity subset. *)

val count : severity -> diagnostic list -> int
