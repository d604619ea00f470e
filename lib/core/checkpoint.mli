(** Versioned on-disk checkpoints for {!Learner}.

    A checkpoint is one JSON object holding a [version] field, the run's
    full spec ({!meta}) and the learner's {!Learner.state}: only what
    cannot be recomputed.  The dataset, the ALC reference set and the
    fault seed are functions of the spec, so the reader derives them
    again.  Every float — responses, RNG words, cost accumulators, the
    budget — is serialized as the hex of its IEEE-754 bits, because
    resume must reproduce the uninterrupted run byte-for-byte and the
    JSON float path renders non-finite values as [null].

    Files are written as version 2.  Version 1 files, which also stored
    the dataset, the reference set and the fault seed, still load: keys
    the reader does not read are ignored, and their missing [n_max] and
    [budget] read as [None].

    {!save} is atomic (write to [path ^ ".tmp"], then rename), so a run
    killed mid-checkpoint leaves the previous good checkpoint intact —
    exactly the crash scenario checkpoints exist for. *)

val version : int
(** Format version written by {!save}; {!load} reads 1 up to it. *)

type meta = {
  bench : string;  (** SPAPT benchmark name. *)
  scale : string;  (** Scale label ([smoke], [quick], ...). *)
  seed : int;  (** Master seed of the run. *)
  fault : string option;  (** Fault spec string. *)
  n_max : int option;  (** Override of the scale's iteration cap. *)
  budget : float option;  (** Override of the scale's cost budget. *)
}
(** The run's spec: everything [altune resume] needs to rebuild the
    problem, dataset, settings and fault injector around the state. *)

val save : path:string -> meta:meta -> Learner.state -> (unit, string) result
(** Atomically (re)write the checkpoint file.  A failed open, write or
    rename is an [Error] that leaves no temporary file. *)

val probe : string -> (unit, string) result
(** [probe path] creates and removes the temporary file {!save} writes
    first, so a run learns that its checkpoint cannot be written before
    it does any work; its [Error] is the one {!save} would return. *)

val load : string -> (meta * Learner.state, string) result
(** Parse a checkpoint file; rejects unknown versions.  Files that still
    carry the retired [every] field load unchanged.  A file that cannot
    be read is its [Sys_error] message; one that is not JSON, the
    parser's; otherwise {!of_json}'s. *)

val to_json : meta:meta -> Learner.state -> Altune_obs.Json.t

val of_json : Altune_obs.Json.t -> (meta * Learner.state, string) result
(** Decode through {!Altune_obs.Json}'s field readers.  Every error
    starts ["checkpoint: "] and names the field with its enclosing keys,
    e.g. [checkpoint: state: missing or non-integer "iteration" field]
    or [checkpoint: state: obs[3]: missing or non-hex-float "sum" field];
    floats are [hex-float] fields and RNG words [hex] fields. *)
