(** Rotating JSONL time series for periodic telemetry snapshots.

    A writer appends one JSON object per line to [path]; when the
    current file reaches 1000 records it is rotated to [path.1]
    (shifting [path.1] to [path.2], ... up to 3 old files, dropping the
    oldest), so a daemon that snapshots forever uses bounded disk.
    {!load} reads one file back; {!load_all} reads the rotation set
    oldest-first, which is what the dashboard wants. *)

type writer

val create : string -> writer
(** Open [path] for appending (truncating an existing file: a new
    daemon run starts a new series). *)

val write : writer -> Json.t -> unit
(** Append one record as a single line and flush, rotating first if the
    current file is full. *)

val close : writer -> unit

val load : string -> Json.t list
(** Parse one JSONL file; unparseable lines are skipped.  Missing file
    is an empty series. *)

val load_all : string -> Json.t list
(** [load path] preceded by its rotated predecessors [path.N] (highest
    [N] = oldest first). *)
