(** Training-cost accounting.

    The paper measures training cost as "the cumulative compilation and
    runtimes of any executables used in training" (Section 4.3): every
    profiling run is charged at its measured duration, and every distinct
    configuration's compilation is charged once (binaries are cached).

    A third channel accounts for failures: simulated seconds lost to
    crashed compilations, timed-out runs, and discarded (corrupted)
    measurements.  Failed work is real work, so [total_seconds] includes
    it — cost curves stay honest under fault injection. *)

type t

val create : unit -> t

val charge_run : t -> float -> unit
(** Charge one profiling run of the given duration (seconds). *)

val charge_compile : t -> key:string -> float -> unit
(** Charge a compilation unless [key] was already compiled. *)

val charge_failure : t -> float -> unit
(** Charge seconds lost to one failed attempt (crash, timeout, corrupted
    measurement, or retry backoff).  Counts toward [total_seconds] and
    increments [failures], but not [runs]. *)

val run_seconds : t -> float
val compile_seconds : t -> float

val failure_seconds : t -> float
(** Simulated seconds lost to failures (zero unless faults were injected). *)

val total_seconds : t -> float
(** [run_seconds + compile_seconds + failure_seconds]. *)

val runs : t -> int

val failures : t -> int
(** Number of failed attempts charged so far. *)

(** {1 Checkpointing} *)

type snapshot = {
  snap_run_seconds : float;
  snap_compile_seconds : float;
  snap_failure_seconds : float;
  snap_runs : int;
  snap_failures : int;
  snap_compiled : string list;
}
(** Immutable copy of an accumulator, for checkpoint serialization.  The
    compiled-key set is carried as a sorted list; only membership is ever
    observed, so order does not affect behavior. *)

val snapshot : t -> snapshot
val of_snapshot : snapshot -> t
