module Learner = Altune_core.Learner
module Surrogate = Altune_core.Surrogate

type t = {
  label : string;
  n_configs : int;
  test_fraction : float;
  n_obs : int;
  reps : int;
  adaptive : Learner.settings;
  table2_configs : int;
  fig1_max_grid : int;
}

(* Small enough for CI smoke runs (@bench): seconds, not minutes,
   while still exercising datasets, all three plans and repetitions. *)
let smoke =
  {
    label = "smoke";
    n_configs = 250;
    test_fraction = 0.25;
    n_obs = 10;
    reps = 2;
    adaptive =
      {
        Learner.scaled_settings with
        n_init = 4;
        n_obs_init = 10;
        n_candidates = 15;
        n_max = 50;
        ref_size = 40;
        eval_every = 10;
        model = Surrogate.dynatree ~particles:25 ();
      };
    table2_configs = 30;
    fig1_max_grid = 6;
  }

let quick =
  {
    label = "quick";
    n_configs = 1200;
    test_fraction = 0.25;
    n_obs = 35;
    reps = 2;
    adaptive =
      {
        Learner.scaled_settings with
        n_max = 260;
        n_candidates = 50;
        ref_size = 120;
        eval_every = 10;
        model = Surrogate.dynatree ~particles:80 ();
      };
    table2_configs = 400;
    fig1_max_grid = 16;
  }

let standard =
  {
    label = "standard";
    n_configs = 4000;
    test_fraction = 0.25;
    n_obs = 35;
    reps = 5;
    adaptive = Learner.scaled_settings;
    table2_configs = 1500;
    fig1_max_grid = 32;
  }

let paper =
  {
    label = "paper";
    n_configs = 10_000;
    test_fraction = 0.25;
    n_obs = 35;
    reps = 10;
    adaptive = Learner.paper_settings;
    table2_configs = 10_000;
    fig1_max_grid = 32;
  }

let of_label = function
  | "smoke" -> Some smoke
  | "quick" -> Some quick
  | "standard" -> Some standard
  | "paper" -> Some paper
  | _ -> None

let fixed t n = { t.adaptive with plan = Learner.Fixed n }
