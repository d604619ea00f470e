(** Fixed-size quantile sketch (DDSketch-style).

    Values are binned into logarithmic buckets: value [v] lands in
    bucket [floor (log v / log gamma)] with [gamma = (1+alpha)/(1-alpha)],
    which bounds the {e relative} error of any reported quantile by
    [alpha].  The bucket array is fixed at creation (covering
    [1e-9 .. 1e9], with an underflow bucket for anything at or below the
    bottom and a clamp into the top bucket above the top), so a sketch
    never grows and adding a value is O(1) with no allocation.

    All state is atomic: [add] is safe from any domain.  Buckets hold
    integer counts, so {!quantile}, {!count}, {!max_value} and
    {!min_value} do not depend on the order in which domains added the
    same values; only the float [sum]'s round-off does. *)

type t

val alpha : float
(** 0.02, every sketch's [alpha]: quantiles within 2% relative error,
    ~1k buckets. *)

val create : unit -> t
(** A fresh empty sketch. *)

val add : t -> float -> unit
(** Record one value.  Non-finite and non-positive values count toward
    {!count} via the underflow bucket (they rank below everything). *)

val count : t -> int
val sum : t -> float

val max_value : t -> float
(** Exact maximum of added values; [neg_infinity] when empty. *)

val min_value : t -> float
(** Exact minimum of added values; [infinity] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0,1]: a value whose rank error follows
    the bucket scheme, clamped into [[min_value t, max_value t]].
    [nan] when the sketch is empty. *)

val summary_json : t -> Json.t
(** Small fixed-shape object for snapshots:
    [{count; sum; min; max; p50; p90; p99}] (min/max/quantiles omitted
    when empty).  Keys sorted. *)
