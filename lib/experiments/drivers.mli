(** One driver per table/figure of the paper's evaluation, each returning
    the rendered text (and optionally writing CSV next to it).

    - {!table1}: lowest common RMSE, per-plan cost, speed-up, geometric
      mean — the paper's headline table.
    - {!table2}: spread of runtime variance and 95% CI/mean at 35 and 5
      samples across each benchmark's space.
    - {!fig1}: MAE over the mm unroll-factor grid for one sample vs. the
      optimal per-point sample count, plus the sample-count map.
    - {!fig2}: runtime vs. unroll factor for adi's j1 loop, single samples.
    - {!fig5}: bar chart of the profiling-cost reduction (Table 1 data).
    - {!fig6}: RMSE-vs-cost curves for the three sampling plans on six
      representative benchmarks.
    - {!ablation}: selection-strategy / revisit / particle-count ablations
      on one benchmark (design-choice experiments beyond the paper).

    The drivers that run the learner ({!table1}, {!fig5}, {!fig6},
    {!ablation}) take [?fault] (the CLI's [--fault-spec]): every learner
    run gets a deterministic fault injector, seeded per run, so output
    stays bit-identical at any job count.  They also take [?events] (the
    CLI's [--events] sink): each run streams its events on it under its
    own {!Runs.run_key}.  {!table2}, {!fig1} and {!fig2} run no learner
    and take neither. *)

val check_benchmarks : string list -> unit
(** Raises [Invalid_argument] naming the first benchmark that is unknown
    or listed twice, as every driver taking [?benchmarks] does: a name
    listed twice deadlocks a learner driver on its {!Runs.curves_for}
    key (see {!Altune_exec.Memo.find_or_compute}). *)

val table1 :
  ?benchmarks:string list ->
  ?fault:Altune_exec.Fault.spec ->
  ?events:Altune_obs.Events.sink ->
  scale:Scale.t ->
  seed:int ->
  unit ->
  string

val table2 :
  ?benchmarks:string list -> scale:Scale.t -> seed:int -> unit -> string

val fig1 : scale:Scale.t -> seed:int -> unit -> string
val fig2 : scale:Scale.t -> seed:int -> unit -> string

val fig5 :
  ?benchmarks:string list ->
  ?fault:Altune_exec.Fault.spec ->
  ?events:Altune_obs.Events.sink ->
  scale:Scale.t ->
  seed:int ->
  unit ->
  string

val fig6 :
  ?benchmarks:string list ->
  ?fault:Altune_exec.Fault.spec ->
  ?events:Altune_obs.Events.sink ->
  scale:Scale.t ->
  seed:int ->
  unit ->
  string

val ablation :
  ?bench:string ->
  ?fault:Altune_exec.Fault.spec ->
  ?events:Altune_obs.Events.sink ->
  scale:Scale.t ->
  seed:int ->
  unit ->
  string
