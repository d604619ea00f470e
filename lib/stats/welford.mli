(** Numerically stable online accumulation of mean and variance
    (Welford's algorithm).  Used for
    per-configuration runtime summaries, where observations arrive one at a
    time as the sequential-analysis loop revisits a configuration. *)

type t

val empty : t
val singleton : float -> t

val add : t -> float -> t
(** Functional update: [add t x] is [t] with one more observation. *)

val count : t -> int
val mean : t -> float
(** Mean of the observations; [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [0.] when fewer than two observations. *)

val std : t -> float
val sum : t -> float

val std_error : t -> float
(** Standard error of the mean, [std/sqrt n]. *)

val ci_halfwidth : ?level:float -> t -> float
(** Half-width of the Student-t confidence interval for the mean at the
    given two-sided confidence [level] (default [0.95]); [infinity] with
    <2 observations. *)

val ci_over_mean : ?level:float -> t -> float
(** The CI-halfwidth / mean ratio used by the paper's post-hoc sampling-plan
    validation (Section 4.3). *)

val of_array : float array -> t
