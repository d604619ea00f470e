(** Special functions needed for confidence intervals and Bayesian leaf
    posteriors: log-gamma, the complementary error function, and the
    regularized incomplete beta function.  Implementations follow the classical Lanczos /
    continued-fraction formulations and are accurate to ~1e-10 over the
    ranges used in this project. *)

val log_gamma : float -> float
(** [log_gamma x] is [ln (Gamma x)] for [x > 0]. *)

val erfc : float -> float
(** Complementary error function, accurate for large arguments. *)

val incomplete_beta : a:float -> b:float -> float -> float
(** [incomplete_beta ~a ~b x] is the regularized incomplete beta function
    I_x(a, b) for [0 <= x <= 1], computed with Lentz's continued fraction. *)

val log_beta : float -> float -> float
(** [log_beta a b = log_gamma a +. log_gamma b -. log_gamma (a +. b)]. *)
