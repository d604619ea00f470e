(** Experiment scales.

    The paper's full experiment (10,000 configurations x 35 runs per
    benchmark, 2,500 training iterations, 5,000 particles, 10 repetitions)
    is far beyond what a test harness should burn; these presets keep the
    experimental *structure* fixed while shrinking sizes.  [quick] drives
    the bench harness; [standard] is for overnight runs; [paper] matches
    the paper's parameters. *)

type t = {
  label : string;
  n_configs : int;  (** Dataset size (paper: 10,000). *)
  test_fraction : float;  (** Held-out fraction (paper: 0.25). *)
  n_obs : int;  (** Observations per labelled example (paper: 35). *)
  reps : int;  (** Experiment repetitions averaged (paper: 10). *)
  adaptive : Altune_core.Learner.settings;
  table2_configs : int;  (** Configurations sampled for Table 2. *)
  fig1_max_grid : int;  (** Grid edge cap for the Figure 1 sweep. *)
}

val smoke : t
(** Seconds-long preset for CI smoke runs (the [@bench] alias). *)

val quick : t
val standard : t
val paper : t

val of_label : string -> t option

val fixed : t -> int -> Altune_core.Learner.settings
(** The same settings with a fixed-[n] sampling plan (the baseline and
    one-shot competitors). *)
