(** Cooperative model-checking scheduler.

    {!run} executes a scenario body as virtual thread 0 under
    [Altune_exec.Sync.with_ops]: every synchronization operation and
    instrumented shared access in the code under test becomes an effect,
    the scheduler regains control there, and a policy callback decides
    which enabled thread performs its pending operation next — so one
    real domain deterministically explores interleavings that the OS
    scheduler may never produce.  Each executed operation is fed to a
    {!Racecheck} detector, and a global state where live threads exist
    but none is enabled is reported as a deadlock (which is also how
    lost wakeups surface: the forgotten broadcast leaves waiters asleep
    forever).

    Semantics mirror the real primitives: locks block until free,
    [wait] atomically releases its mutex and sleeps until a broadcast,
    then reacquires; [broadcast] wakes every sleeper on its condition
    (the engine under test has no [signal]); [join] blocks until the
    target finishes and re-raises its exception, as [Domain.join]
    does. *)

(** A thread's pending operation — what it {e will} do when next
    scheduled.  Exposed so policies can reason about independence
    (sleep sets) and render deadlock states. *)
type op =
  | O_start  (** Begin running the thread body. *)
  | O_lock of int
  | O_unlock of int
  | O_wait of int * int  (** cond, mutex: release and go to sleep. *)
  | O_reacquire of int  (** Mutex reacquisition after a wakeup. *)
  | O_broadcast of int
  | O_spawn
  | O_join of int
  | O_read of int * string  (** loc, site. *)
  | O_write of int * string

val op_to_string : op -> string

val independent : op -> op -> bool
(** Whether two pending operations of {e different} threads commute
    (touch no common lock/condition/cell; reads of one cell commute,
    anything involving spawn/join conservatively does not). *)

exception Prune
(** A policy may raise this from [choose] to cut the current run short
    (sleep-set pruning: every continuation of this prefix is known to
    be equivalent to an already-explored schedule). *)

type deadlock_entry = { d_tid : int; d_pending : string }

type deadlock = deadlock_entry list
(** One entry per live thread, with its blocked operation. *)

type outcome = {
  result : (unit, exn) Result.t;
      (** Thread 0's completion ([Error Prune] when pruned). *)
  races : Racecheck.race list;
  deadlock : deadlock option;
  steps : int;
  trace_hash : int;
      (** Identity of the executed interleaving (distinct-schedule
          counting). *)
  pruned : bool;
}

val run :
  ?max_steps:int ->
  policy:(step:int -> enabled:int list -> pending:(int -> op) -> int) ->
  (unit -> unit) ->
  outcome
(** [run ~policy body] explores one schedule.  [policy] is called at
    every scheduling point with the enabled thread ids (never empty)
    and each thread's pending operation; it returns the thread to run.
    [max_steps] (default 200_000) guards against runaway scenarios:
    exceeding it is reported as a [Failure] result. *)
