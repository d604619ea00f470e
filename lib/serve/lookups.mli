(** Cross-session accounting of the shared evaluation stores: which
    session's lookups of a (kernel, configuration key) pair hit a key
    that another session looked up too.

    A key's owner is the lowest admission id that looked it up, not
    whoever computed it first: compute order depends on scheduling,
    admission does not.  After any set of lookups, in any order, the
    statistics are those of the multiset of (key, session) lookups, so
    they are schedule-free under parallel ticks.  {!stats} is O(1):
    each key keeps one record and the totals are kept running. *)

type t

val create : unit -> t

val note : t -> session:int -> string * string -> unit
(** Count one lookup of [key] by the session admitted [session]-th.
    Safe from any domain. *)

val stats : t -> Protocol.memo_stats
(** [m_entries] distinct keys, [m_lookups] lookups, [m_hits] =
    lookups - entries, [m_shared_keys] keys looked up by two or more
    sessions, and [m_cross_hits] lookups of a key by a session other
    than its owner. *)
