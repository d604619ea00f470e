(** Batch descriptive statistics over float arrays. *)

val mean : float array -> float
val variance : float array -> float
(** Unbiased sample variance (two-pass). *)

val std : float array -> float
val min : float array -> float
val max : float array -> float

val quantile : float array -> float -> float
(** [quantile a p] for [0 <= p <= 1], linear interpolation between order
    statistics (type-7).  The input is not modified. *)

val median : float array -> float

val geometric_mean : float array -> float
(** Geometric mean; all entries must be positive. *)

val summary : float array -> float * float * float
(** [(min, mean, max)] triple, as reported in the paper's Table 2. *)

