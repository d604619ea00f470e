(** Virtual synchronization shim for the execution engine.

    Every [Mutex]/[Condition]/[Domain] operation and every instrumented
    shared-memory access in [lib/exec] goes through this interface.  In
    production ({e real} mode, the default) each operation is a direct
    one-branch dispatch to the corresponding stdlib primitive — no
    semantic change, and outputs are byte-identical to calling the
    primitives directly.  Under {!with_ops} ({e virtual} mode) the
    operations are routed to a registered implementation instead —
    [Altune_conc] installs a cooperative model-checking scheduler there,
    which lets the {e same} [Pool]/[Memo]/[Fault] code run under
    controlled, explored interleavings with a vector-clock race detector
    watching the instrumented accesses.

    Access instrumentation ({!loc}, {!read}, {!write}) is free in real
    mode beyond a single global-ref load and branch: [read]/[write] are
    no-ops, and {!loc} returns a dummy.  Virtual objects must only be
    used inside the {!with_ops} scope that created them. *)

type mutex
type cond
type handle
(** A spawned worker: a real [Domain.t] or a virtual thread id. *)

type loc = int
(** Identity of one instrumented shared-memory cell (e.g. {e this}
    batch's [remaining] counter).  Real mode: the dummy [-1]. *)

(** The virtual implementation contract, installed by {!with_ops}.
    Mutexes, conditions, locs and threads are named by small ints that
    the implementation allocates. *)
type ops = {
  o_mutex : unit -> int;
  o_lock : int -> unit;
  o_unlock : int -> unit;
  o_cond : unit -> int;
  o_wait : cond:int -> mutex:int -> unit;
  o_broadcast : int -> unit;
  o_spawn : (unit -> unit) -> int;
  o_join : int -> unit;
  o_self : unit -> int;
  o_loc : string -> int;
  o_read : loc -> site:string -> unit;
  o_write : loc -> site:string -> unit;
}

val with_ops : ops -> (unit -> 'a) -> 'a
(** [with_ops ops f] runs [f] in virtual mode: objects created by [f]
    are virtual and their operations are routed through [ops].  Restores
    real mode afterwards (also on exceptions).  Not reentrant and not
    for concurrent use with real pools: the model checker owns the
    process while it runs (tests and [altune concheck] only). *)

val virtual_mode : unit -> bool

val mutex : unit -> mutex
val lock : mutex -> unit
val unlock : mutex -> unit

val cond : unit -> cond
val wait : cond -> mutex -> unit
val broadcast : cond -> unit

val spawn : (unit -> unit) -> handle
val join : handle -> unit

val self_id : unit -> int
(** Real mode: [(Domain.self () :> int)]; virtual: the thread id. *)

val loc : string -> loc
(** [loc name] registers one shared cell for race checking; [name]
    identifies it in race reports ("pool.batch.remaining", ...). *)

val read : loc -> site:string -> unit
(** Note a read of an instrumented cell; [site] is the source location
    reported if this access races.  No-op in real mode. *)

val write : loc -> site:string -> unit
