(** Transformation-soundness checker: an independent audit of what
    {!Transform} emits.

    The optimization search trusts {!Transform} to produce kernels that
    are (a) well-formed and (b) semantically equal to the original — a
    silent violation corrupts every runtime the machine model derives
    from the transformed nest, and no downstream test would notice.  This
    module re-establishes both properties from scratch for a given
    sequence of transformation {!step}s:

    - {b legality} is re-derived from {!Dependence} on the pre-step
      kernel, separately from the gating inside {!Transform} (unrolling
      is unconditionally legal; tiling requires the tiled loops to be
      pairwise interchangeable; unroll-and-jam uses its dedicated
      dependence predicate);
    - the post-step kernel must {b lint} clean ({!Ast.validate} plus
      {!Lint} with no errors);
    - {b dependence analysis re-runs} on the transformed AST and every
      direction vector must remain lexicographically non-negative;
    - {b iteration-count preservation}: the per-array load and store
      counts of an interpreter run must be identical before and after
      (these transformations reorder iterations, they never add or drop
      statement instances);
    - {b differential execution}: original and transformed kernels run on
      identical pseudo-random inputs at small problem sizes and every
      array and scalar must match within a relative tolerance.

    Verdicts are structured (per step, per check, with a failure message)
    rather than a boolean, so an [altune check] audit or a fuzzing
    counterexample pinpoints which transformation broke which property. *)

type step =
  | Unroll of { index : string; factor : int }
  | Tile_nest of (string * int) list
      (** Loops of one rectangular tile nest, outermost first, with their
          tile sizes (1 = untouched), as {!Transform.tile_nest}. *)
  | Unroll_and_jam of { index : string; factor : int }

val step_to_string : step -> string

val apply_step : step -> Ast.kernel -> (Ast.kernel, Transform.error) result

val apply_steps :
  step list -> Ast.kernel -> (Ast.kernel, Transform.error) result
(** Left-to-right application, stopping at the first refusal. *)

type status = Pass | Fail of string | Skipped of string

type check = { check_name : string; status : status }

type step_report = { step : string; checks : check list }

type verdict = { subject : string; reports : step_report list }

val ok : verdict -> bool
(** No check anywhere failed (skips do not fail a verdict). *)

val failures : verdict -> (string * check) list
(** Failed checks with their step labels, in order. *)

val pp_verdict : Format.formatter -> verdict -> unit
val verdict_to_string : verdict -> string

val legality : Ast.kernel -> step -> status
(** Dependence-derived legality of applying [step] to the kernel,
    computed without consulting {!Transform}. *)

val dependences_sound : Ast.kernel -> status
(** Re-run the dependence analysis and require every direction vector to
    be lexicographically non-negative (the analysis' normalization
    invariant) — the "dependences" check of {!run} and {!check_pair}. *)

val check_pair :
  ?param_overrides:(string * int) list ->
  ?tolerance:float ->
  original:Ast.kernel ->
  transformed:Ast.kernel ->
  unit ->
  check list
(** The post-state checks alone (lint, dependence re-analysis, access
    counts, differential execution) for an original/transformed pair,
    without knowledge of which steps produced it. *)

val run :
  ?param_overrides:(string * int) list ->
  ?tolerance:float ->
  ?subject:string ->
  Ast.kernel ->
  step list ->
  verdict
(** Audit a transformation sequence step by step: each step is checked
    for legality, applied, and its output checked against the pre-step
    kernel with {!check_pair}.  A step that {!Transform} refuses is
    recorded as a failed "applies" check and the remaining steps are
    skipped.  [param_overrides] selects small problem sizes for the
    interpreter-based checks (differential execution at default sizes is
    usually prohibitively slow). *)

val default_array_init : string -> int -> float
(** The deterministic pseudo-random input filler used for differential
    runs: a hash of (array name, flat offset) mapped into [0.5, 1.5), so
    no element is zero (kernels divide by array elements) and any two
    runs see identical inputs. *)
