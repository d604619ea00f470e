(** Native code generation: compile a kernel to a standalone OCaml
    program, build it with [ocamlopt], and time real executions.

    This closes the loop the simulator abstracts away: the same IR the
    transformations rewrite can be lowered to machine code and measured on
    the machine the reproduction actually runs on.  It exists as a
    demonstration backend (see the [native_tune] example) and as an
    end-to-end oracle for the test suite — generated programs must compute
    exactly what the reference interpreter computes.

    Arrays are flattened [float array]s with explicitly generated index
    arithmetic, so the emitted code corresponds directly to the IR
    (including whatever unrolling/tiling was applied); the emitted program
    initializes arrays from a deterministic hash, runs the kernel body,
    and prints either a checksum or the median runtime of repeated
    executions. *)

val expr_to_ocaml : Ast.expr -> string
(** OCaml source for an index (integer) expression. *)

val reference_init : string -> int -> float
(** The deterministic initial value generated programs give element [i] of
    the named array — pass it as [array_init] to {!Interp.run_kernel} to
    compare interpreter and native results on identical inputs. *)

val program :
  ?param_overrides:(string * int) list ->
  mode:[ `Checksum | `Time of int ] ->
  Ast.kernel ->
  string
(** Complete OCaml program text.  [`Checksum] prints the sum of all array
    elements after one execution (the equivalence oracle); [`Time n] runs
    the body [n] times and prints the median wall-clock seconds. *)

type compiled

val build : string -> compiled
(** Compile program text with [ocamlopt] in a fresh temporary scratch
    directory.  Raises [Failure] with the compiler output on error. *)

val run : compiled -> string
(** Execute and return stdout (trimmed).  Raises [Failure] on a non-zero
    exit. *)

val cleanup : compiled -> unit
(** Remove the scratch directory. *)

val checksum :
  ?param_overrides:(string * int) list -> Ast.kernel -> float
(** Convenience: generate, build, run in checksum mode, clean up, and
    parse the checksum. *)

val time_native : ?param_overrides:(string * int) list -> Ast.kernel -> float
(** Convenience: median wall-clock seconds of 5 real native executions. *)
