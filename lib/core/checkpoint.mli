(** Versioned on-disk checkpoints for {!Learner.run}.

    A checkpoint is one JSON object holding a [version] field, run
    provenance (benchmark, scale, seed, fault spec), the full dataset,
    and the learner's {!Learner.state}.  Every float — responses, RNG
    words, cost accumulators — is serialized as the hex of its IEEE-754
    bits, because resume must reproduce the uninterrupted run
    byte-for-byte and the JSON float path renders non-finite values as
    [null].

    {!save} is atomic (write to [path ^ ".tmp"], then rename), so a run
    killed mid-checkpoint leaves the previous good checkpoint intact —
    exactly the crash scenario checkpoints exist for. *)

val version : int
(** Current format version, stored in the file and checked by {!load}. *)

type meta = {
  bench : string;  (** SPAPT benchmark name. *)
  scale : string;  (** Scale label ([smoke], [quick], ...). *)
  seed : int;  (** Master seed of the interrupted command. *)
  fault : (string * int) option;  (** Fault spec string and fault seed. *)
}
(** Everything [altune resume] needs to rebuild the problem, settings and
    fault injector around the restored state. *)

val save : path:string -> meta:meta -> Dataset.t -> Learner.state -> unit
(** Atomically (re)write the checkpoint file. *)

val load :
  string -> (meta * Dataset.t * Learner.state, string) result
(** Parse a checkpoint file; rejects unknown versions.  Keys it does not
    read are ignored, so files that still carry the retired [every]
    field load unchanged. *)

val to_json : meta:meta -> Dataset.t -> Learner.state -> Altune_obs.Json.t
val of_json :
  Altune_obs.Json.t -> (meta * Dataset.t * Learner.state, string) result
