(** Cumulative distribution functions and quantiles for the distributions
    used in confidence-interval computation and in the dynamic-tree leaf
    posteriors (Gaussian and Student-t). *)

val normal_cdf : ?mu:float -> ?sigma:float -> float -> float

val normal_quantile : float -> float
(** [normal_quantile p] is the standard-normal inverse CDF for
    [0 < p < 1] (Acklam's rational approximation, |error| < 1.15e-9). *)

val student_t_cdf : df:float -> float -> float
(** CDF of the standard Student-t distribution. *)

val student_t_quantile : df:float -> float -> float
(** [student_t_quantile ~df p] inverts {!student_t_cdf} for [0 < p < 1];
    closed-form for df = 1 and 2, otherwise bisection refined to ~1e-10. *)

val log_student_t_pdf : ?mu:float -> ?scale:float -> df:float -> float -> float
(** Log-density of the location-scale Student-t: used by dynamic-tree
    marginal likelihoods. *)
