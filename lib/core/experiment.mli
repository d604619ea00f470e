(** Multi-repetition experiment machinery: averaged error-vs-cost curves
    and the paper's Table 1 comparison (time for two methods to first reach
    their lowest common error). *)

type curve = Learner.eval_point list

val average_curves : curve list -> curve
(** Pointwise average of repetitions (matched by position, as all
    repetitions share the evaluation schedule); costs and errors are both
    averaged, as in the paper's 10-run averages. *)

val cost_to_reach : curve -> float -> float option
(** [cost_to_reach curve err] is the cumulative cost at the first recorded
    point whose RMSE is [<= err]. *)

val min_rmse : curve -> float

type comparison = {
  lowest_common_rmse : float;
  cost_baseline : float;
  cost_ours : float;
  speedup : float;  (** [cost_baseline /. cost_ours]. *)
}

val compare_curves : baseline:curve -> ours:curve -> comparison
(** The paper's Table 1 metric: the lowest error level both methods
    eventually reach, and each method's cost to first reach it. *)
