(** Seeded, deterministic fault injection for the experiment harness.

    Real iterative-compilation campaigns lose training examples to compiler
    crashes, timed-out profiling runs, and corrupted measurements.  This
    module simulates those failure modes reproducibly: each (config, attempt)
    pair gets a one-shot generator derived from the fault seed with
    {!Altune_prng.Rng.derive}, so the verdict depends only on the seed, the
    spec, and the key — never on scheduling — and the same run produces the
    same faults at any [--jobs].

    Fault draws consume nothing from the learner's own random stream, so a
    run with no fault spec is byte-identical to one where this module does
    not exist. *)

type spec = {
  crash : float;  (** probability a compile/profile attempt crashes *)
  timeout : float;  (** probability an attempt times out *)
  timeout_lost : float;  (** simulated seconds lost to one timeout *)
  corrupt : float;  (** probability a measurement is corrupted (discarded) *)
  max_retries : int;  (** attempts beyond the first before a config is dead *)
  backoff : float;  (** base simulated backoff seconds, doubled per retry *)
}
(** Probabilities are per-attempt and drawn in order crash, then timeout,
    then corrupt (a single uniform variate partitions the three). *)

val default : spec
(** All probabilities zero, [max_retries = 3], [timeout_lost = 10.],
    [backoff = 1.]. *)

val of_string : string -> (spec, string) result
(** Parse a comma-separated [key=value] spec, e.g.
    ["crash=0.05,timeout=0.02,corrupt=0.01,max_retries=3"].  Keys:
    [crash], [timeout], [timeout_lost], [corrupt], [max_retries],
    [backoff]; omitted keys keep their {!default} value.  Probabilities
    must lie in [0, 1]. *)

val to_string : spec -> string
(** Canonical round-trippable rendering of a spec (all keys, in the order
    listed above). *)

type t
(** A fault injector: a spec plus the seed its draws derive from. *)

val create : spec -> seed:int -> t

val spec : t -> spec

type verdict =
  | Ok  (** the attempt succeeds *)
  | Crash  (** the compile/profile attempt crashes outright *)
  | Timeout of float  (** the attempt times out, losing this many seconds *)
  | Corrupt  (** the measurement completes but its value is garbage *)

val draw : t -> key:string -> attempt:int -> verdict
(** [draw t ~key ~attempt] is the deterministic verdict for attempt number
    [attempt] (0-based) at [key] (typically the config's string key).  Uses
    a one-shot derived generator, so the result is independent of call
    order and of every other stream in the program. *)

val backoff_seconds : spec -> failures:int -> float
(** [backoff_seconds spec ~failures] is the simulated backoff charged after
    the [failures]-th consecutive failure (1-based):
    [backoff *. 2^(failures-1)]. *)
