(** Domain-safe, compute-once memo table.

    {!find_or_compute} guarantees that for any key the compute function
    runs at most once at a time and its result is shared: if a second
    domain asks for a key that is already being computed, it blocks until
    the first computation finishes instead of duplicating the (possibly
    multi-second) work.  If the computation raises, the entry is dropped
    and the exception propagates to the computing caller; a blocked waiter
    then takes over and retries the computation itself.

    A table created with a [capacity] is bounded: publishing a value
    into a full table first evicts published entries in second-chance
    ("clock") order — oldest first, but an entry hit since the sweep
    last passed it gets one reprieve.  In-flight entries are never
    evicted (their waiters depend on them).  Eviction only ever costs
    recomputation, so it suits values that are deterministic functions
    of their key. *)

type ('k, 'v) t

val create :
  ?size:int -> ?capacity:int -> ?name:string -> unit -> ('k, 'v) t
(** [capacity] (default unbounded) caps the published entries;
    [Invalid_argument] if it is below 1.  [name] (default ["memo"])
    prefixes the table's [Altune_obs.Metrics] counters [<name>.hits],
    [<name>.misses], [<name>.waits] (callers that blocked on an
    in-flight computation instead of duplicating it) and
    [<name>.evictions]. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_compute t k compute] returns the cached value for [k],
    computing (and caching) it with [compute] on a miss.  [compute] runs
    outside the table lock, so unrelated keys never serialize; it must not
    recursively ask for [k] (that would deadlock by definition of
    compute-once). *)

type outcome =
  | Computed  (** this caller ran [compute]. *)
  | Hit  (** the value was already published. *)
  | Waited  (** blocked on another caller's in-flight computation. *)

val find_or_compute_outcome :
  ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * outcome
(** {!find_or_compute} plus how the value was obtained — the sharing
    hook consumers (e.g. a multi-tenant server attributing cross-session
    cache traffic) build their accounting on.  Note the outcome is a
    property of the {e schedule} (who got there first), so deterministic
    accounting must aggregate outcomes into schedule-independent
    quantities (e.g. lookups and distinct keys), not record them
    per-caller. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Completed entries only; [None] for absent or in-flight keys.  A
    peek: unlike a hit, it does not protect the entry from eviction. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Whether [k] has a completed entry. *)

val clear : ('k, 'v) t -> unit
(** Drops completed entries.  In-flight computations finish and publish
    normally (callers already waiting on them still get their value). *)

val length : ('k, 'v) t -> int
(** Number of completed entries. *)
