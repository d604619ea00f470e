(** Reference interpreter for the kernel IR.

    The interpreter exists to give the IR an executable semantics against
    which transformations are checked: the property-test suite runs original
    and transformed kernels on identical random inputs and compares outputs
    bit-for-bit.  Array elements are floats; index expressions must evaluate
    to integers. *)

type env
(** Mutable execution environment: parameter bindings, scalar values, and
    array storage. *)

exception Runtime_error of string
(** Raised on out-of-bounds access, type confusion (float used as index),
    division by zero in index arithmetic, or a reference to a missing
    variable. *)

val init :
  ?param_overrides:(string * int) list ->
  ?array_init:(string -> int -> float) ->
  ?on_access:(string -> int -> bool -> unit) ->
  Ast.kernel ->
  env
(** [init kernel] allocates every declared array (flattened, row-major) and
    binds parameters to their defaults, overridden by [param_overrides].
    [array_init name i] gives the initial value of flat element [i] of array
    [name]; default is [0.].  [on_access array offset is_write] is called on
    every array load and store that {!run} makes, with the array name, the
    flat element offset and whether it is a write: the exact memory access
    stream of the execution, which the trace-driven cache simulator and the
    soundness audit's access counts observe. *)

val run : env -> Ast.kernel -> unit
(** Execute the kernel body. *)

val read_array : env -> string -> float array
(** Copy of an array's current contents (flattened row-major). *)

val read_scalar : env -> string -> float

val param : env -> string -> int
(** Value of a problem-size parameter. *)

val eval_int_expr : env -> Ast.expr -> int
(** Evaluate an index-typed expression in the current environment (loop
    indices visible only during {!run}; intended for bounds made of
    parameters and literals). *)

val array_extent : env -> string -> int
(** Total flattened element count of an array (for address-space
    layout). *)

val run_kernel :
  ?param_overrides:(string * int) list ->
  ?array_init:(string -> int -> float) ->
  Ast.kernel ->
  (string * float array) list
(** Convenience: init, run, and return all arrays' final contents. *)
