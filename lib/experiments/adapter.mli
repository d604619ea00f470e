(** Adapts a SPAPT benchmark to the active learner's abstract
    {!Altune_core.Problem.t} interface. *)

val problem_of :
  ?pool:Altune_exec.Pool.t -> Altune_spapt.Spapt.t -> Altune_core.Problem.t
(** [pool] is where the problem's [prepare] fans candidate batches out
    ({!Altune_spapt.Spapt.prepare}); without one, or with a one-job
    pool, [prepare] does nothing.  Either way the problem's outputs are
    identical.  The problem trusts the benchmark's transformation
    recipes; audit them with {!Altune_spapt.Spapt.verify_config}, as
    [altune check] does. *)
