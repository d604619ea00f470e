(** Minimal JSON reader/writer for the observability layer.

    Traces are JSONL (one value per line) and the container has no JSON
    library, so this is a small, dependency-free implementation: enough
    of RFC 8259 for machine-generated documents (full string escaping,
    ints kept distinct from floats so counters round-trip exactly). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering.  Floats print with the shortest
    representation that parses back to the same value; non-finite floats
    render as [null] (JSON has no representation for them). *)

val of_string : string -> (t, string) result
(** Parse one JSON value; errors carry a character position.  Numbers
    without [.]/[e] parse as [Int], everything else as [Float]. *)

val member : string -> t -> t option
(** First binding of a key in an [Obj]; [None] on other constructors. *)

val to_int_opt : t -> int option
(** [Int] directly; an integral [Float] converts. *)

val to_float_opt : t -> float option
(** [Float] directly; an [Int] converts. *)

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option

(** {1 Field readers}

    The one way a decoder reads a field of an object from outside the
    program (a checkpoint, an event file, a protocol line).  Each reader
    takes the key, how to read the value and the object, and returns
    [Ok] or an [Error] that names the key; none raises.  A required
    field that is absent, [null] or of the wrong kind is
    [Error "missing or non-<kind> \"<key>\" field"]; an optional one
    is [Ok None] when absent or [null] and
    [Error "non-<kind> \"<key>\" field"] when of the wrong kind.  A
    nested reader's error is prefixed with its key: ["<key>: ..."] for
    an object field, ["<key>[<index>]: ..."] for a list element.  On a
    value that is not an object every field reads as absent. *)

type 'a kind = { name : string; read : t -> 'a option }
(** How one value converts: [read] is [None] when the value is not of
    the kind, and [name] names the kind in errors. *)

val string : string kind
val int : int kind
(** ["integer"]: {!to_int_opt}, so an integral float reads as an int. *)

val number : float kind
(** ["number"]: {!to_float_opt}, so an int reads as a float. *)

val bool : bool kind
(** ["boolean"]. *)

val req : string -> 'a kind -> t -> ('a, string) result
(** [req key kind j]: the required field [key] of [j]. *)

val opt : string -> 'a kind -> t -> ('a option, string) result
(** [opt key kind j]: the optional field [key] of [j]. *)

val item : 'a kind -> t -> ('a, string) result
(** One value of a kind, as a list element:
    [Error "non-<kind> value"] otherwise. *)

val obj : string -> (t -> ('a, string) result) -> t -> ('a, string) result
(** [obj key read j]: [read] applied to the required object field
    [key]; [Error "missing or non-object \"<key>\" field"] when it is
    absent or not an object. *)

val opt_obj :
  string -> (t -> ('a, string) result) -> t -> ('a option, string) result
(** The optional object field [key]: [Ok None] when absent or [null]. *)

val list :
  string -> (t -> ('a, string) result) -> t -> ('a list, string) result
(** [list key read j]: [read] applied to each element of the required
    list field [key], in order; the first element's error stops it. *)
