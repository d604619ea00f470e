(** Searching a trained model for good configurations.

    The whole point of building a runtime predictor (paper Section 4.1) is
    that searching the *model* is effectively free compared to profiling,
    so very large configuration spaces can be swept.  This module provides
    the sweep: random sampling and greedy hill climbing over single-knob
    moves, both driven by a prediction function and a description of the
    knob space. *)

type space = {
  dim : int;
  cardinality : int -> int;  (** Values of knob [i] are [0 .. c-1]. *)
}

type method_ =
  | Random_sampling of int  (** Number of draws. *)
  | Hill_climbing of { restarts : int; max_steps : int }

type result = {
  best : int array;
  predicted : float;
  evaluations : int;  (** Model queries spent. *)
}

val minimize :
  rng:Altune_prng.Rng.t ->
  space ->
  predict:(int array -> float) ->
  method_ ->
  result
(** Find a configuration minimizing [predict].  Deterministic given the
    rng state.  Raises [Invalid_argument] on empty spaces or nonsensical
    method parameters. *)

val space_of_cardinalities : int array -> space
