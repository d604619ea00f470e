module Spapt = Altune_spapt.Spapt
module Problem = Altune_core.Problem

let problem_of ?pool bench =
  {
    Problem.name = Spapt.name bench;
    dim = Spapt.dim bench;
    space_size = Spapt.space_size bench;
    random_config = (fun rng -> Spapt.random_config bench rng);
    features = (fun c -> Spapt.features bench c);
    measure = (fun ~rng ~run_index c -> Spapt.measure bench ~rng ~run_index c);
    compile_seconds = (fun c -> Spapt.compile_seconds bench c);
    prepare = (fun cs -> Spapt.prepare ?pool bench cs);
  }
