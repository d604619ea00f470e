(** Model-accuracy metrics used throughout the evaluation. *)

val rmse : predicted:float array -> observed:float array -> float
(** Root mean squared error, Equation (1) of the paper.  Arrays must have
    equal, non-zero length. *)
