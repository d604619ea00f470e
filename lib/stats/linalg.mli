(** Small dense linear algebra: just enough for exact Gaussian-process
    regression (symmetric positive-definite solves via Cholesky).
    Matrices are row-major [float array array]. *)

val cholesky : float array array -> float array array
(** Lower-triangular [L] with [L L^T = A] for a symmetric
    positive-definite [A].  Raises [Failure] if [A] is not (numerically)
    positive definite. *)

val solve_lower : float array array -> float array -> float array
(** [solve_lower l b] solves [L x = b] by forward substitution. *)

val solve_upper_transposed : float array array -> float array -> float array
(** [solve_upper_transposed l b] solves [L^T x = b] (backward substitution
    on the transpose of the stored lower factor). *)

val cholesky_solve : float array array -> float array -> float array
(** [cholesky_solve l b] solves [A x = b] given [A]'s Cholesky factor. *)

val dot : float array -> float array -> float
