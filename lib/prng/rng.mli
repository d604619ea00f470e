(** Deterministic, splittable pseudo-random number generation.

    The generator is xoshiro256** seeded through SplitMix64, giving
    high-quality 64-bit output streams that are fully reproducible from an
    integer seed.  Independent sub-streams are obtained with {!split}, which
    derives a new generator whose future output is statistically independent
    of the parent's — this is what lets every experiment repetition, every
    benchmark, and every noise channel own a private stream while the whole
    run stays reproducible. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a fresh generator from a 63-bit seed. *)

type seed_part = I of int | S of string
(** One component of a derived-seed key: an integer (repetition index,
    knob value, ...) or a string (tag, benchmark name, ...). *)

val derive : seed:int -> seed_part list -> int
(** [derive ~seed parts] mixes a master seed with a structured key into a
    non-negative 62-bit seed, SplitMix64-style: every part is absorbed
    through the full finalizer with type and length domain separation, so
    distinct keys yield decorrelated seeds (unlike [Hashtbl.hash], which
    truncates and collides).  Use this to give every task of a parallel
    experiment its own deterministic stream:
    [Rng.create ~seed:(Rng.derive ~seed [S "adaptive"; I rep; S "mm"])]. *)

val copy : t -> t
(** [copy t] is an independent duplicate of [t]'s current state: both copies
    will produce the same future stream. *)

type state = {
  s0 : int64;
  s1 : int64;
  s2 : int64;
  s3 : int64;
  spare : float;
  has_spare : bool;
}
(** A generator's full cursor: the four xoshiro256** words plus the cached
    Marsaglia spare variate.  Transparent so checkpoints can serialize it
    exactly (the floats must round-trip via their IEEE-754 bits). *)

val capture : t -> state
(** [capture t] snapshots [t]'s cursor without advancing it. *)

val restore : state -> t
(** [restore s] is a generator whose future stream is exactly the stream
    [capture]'s subject would have produced: [restore (capture t)] and [t]
    are interchangeable from here on. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator seeded from it; the
    two streams are decorrelated. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform on [\[0, bound)]. [bound] must be positive.
    Rejection sampling makes the draw exactly uniform. *)

val float : t -> float -> float
(** [float t bound] is uniform on [\[0, bound)], using 53 random bits. *)

val uniform : t -> float
(** [uniform t] is uniform on [\[0, 1)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val normal : ?mu:float -> ?sigma:float -> t -> float
(** Gaussian variate via the Marsaglia polar method. *)

val lognormal : ?mu:float -> ?sigma:float -> t -> float
(** [exp] of a Gaussian with the given log-space parameters. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct indices from
    [\[0, n)].  Raises [Invalid_argument] if [k > n].  Order is random. *)
