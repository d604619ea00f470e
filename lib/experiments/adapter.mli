(** Adapts a SPAPT benchmark to the active learner's abstract
    {!Altune_core.Problem.t} interface. *)

val problem_of :
  ?verify:bool ->
  ?pool:Altune_exec.Pool.t ->
  Altune_spapt.Spapt.t ->
  Altune_core.Problem.t
(** With [~verify:true], every configuration is audited with
    {!Altune_spapt.Spapt.verify_config} before its first measurement, and
    an unsound recipe fails fast with the full structured verdict in the
    exception message ([Failure]) instead of silently feeding a corrupted
    runtime to the learner.  Each distinct configuration is audited once;
    repeat measurements reuse the cached approval.  Default [false]
    (audits interpret the kernel twice per new configuration, which
    dominates the simulated measurement cost).

    [pool] is where the problem's [prepare] fans candidate batches out
    ({!Altune_spapt.Spapt.prepare}); without one, or with a one-job
    pool, [prepare] does nothing.  Either way the problem's outputs are
    identical. *)
