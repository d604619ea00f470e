(** Deterministic fixed-size domain pool.

    A pool owns [jobs - 1] worker domains plus the submitting domain, which
    takes part in executing queued tasks while it waits for its batch — so
    [jobs = 1] spawns no domains at all and runs every task inline, and a
    task may itself call {!map} on the same pool (nested fan-out) without
    deadlocking: the inner call simply helps drain the queue.

    Determinism contract: {!map} returns results in input order regardless
    of the execution interleaving, and {!map_reduce} folds them in input
    order.  Tasks therefore see the same inputs and produce the same
    outputs at any job count {e provided} they do not share mutable state;
    derive per-task RNG seeds explicitly (e.g. with
    [Altune_prng.Rng.derive]) instead of sharing a generator.

    Failure contract: if tasks raise, every task of the batch is still
    executed (no silent loss), and the exception of the {e lowest-indexed}
    failing task is re-raised with its backtrace once the batch has
    drained.  The backtrace is captured at the original raise site, so a
    failure inside a {e nested} fan-out — where the helping scheduler may
    execute the inner task on any domain — surfaces the raising task's
    frames, not the helper's.

    Observability: every task runs inside an [Altune_obs.Trace] span named
    ["pool.task"] (with [label]/[index] attributes) parented to the
    submitter's span context, so traced span trees are identical at any
    job count.  The pool also feeds process-wide metrics: counters
    ["pool.tasks"] and ["pool.steals"] (tasks executed by a domain other
    than their submitter — the helping scheduler at work) and quantile
    sketches ["pool.queue_wait_seconds"] and ["pool.task_seconds"]. *)

type t

type event =
  | Task_started of { index : int; label : string }
  | Task_finished of { index : int; label : string; wall_seconds : float }
      (** Progress events, delivered to the [on_event] callback of
          {!create}.  Delivery is serialized by the pool (the callback is
          never invoked concurrently with itself), but may come from any
          domain. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], clamped to at least 1. *)

val create : ?on_event:(event -> unit) -> jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains.  [jobs] must be
    at least 1.  An exception escaping [on_event] is recorded as a failure
    of the task that emitted the event. *)

val jobs : t -> int

val map : ?label:(int -> string) -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element of [xs] on the pool and
    returns the results in input order.  [label] names task [i] for
    progress events (default ["task i"]). *)

val mapi : ?label:(int -> string) -> t -> (int -> 'a -> 'b) -> 'a list -> 'b list

val map_reduce :
  ?label:(int -> string) ->
  t ->
  map:('a -> 'b) ->
  reduce:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a list ->
  'acc
(** Parallel map, then an in-order sequential fold — the fold order is
    fixed by the input order, so the result is schedule-independent. *)

val shutdown : t -> unit
(** Joins the worker domains.  Idempotent.  Must not be called while a
    {!map} is in flight. *)

val with_pool : ?on_event:(event -> unit) -> jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)
