(** Bench records: the one format every benchmark writes, and the diff
    that flags timing regressions between two record files.

    A bench file ([BENCH_harness.json]) is a flat JSON array of records,
    one per line.  A record is a section name, its wall time in seconds
    and the run manifest (host, cores, git rev, scale, jobs, seed),
    optionally a throughput [rate] with its [rate_unit], and any
    section-specific extra fields.  {!record} builds one, {!append} is
    the only writer.

    A diff only compares records whose {e matching key} — (section,
    scale, jobs, host, cores) — is identical on both sides: a timing
    from another machine, another core count, or the pre-manifest era
    (no [host]) is skipped, never silently compared.  Within a key the
    {e last} record wins, since the file is append-only and the newest
    timing is the current truth.

    A baseline record also carries its own regression bound,
    [max_regress], in percent.  Drives [altune bench-diff BASELINE
    CURRENT], the CI gate that fails a build when a benchmark section on
    a comparable host slowed down by more than its baseline record's
    bound. *)

type record = {
  section : string;
  scale : string;
  jobs : int;
  seconds : float;
  host : string option;  (** [None]: not comparable (no manifest). *)
  cores : int option;
  git_rev : string option;
  rate : float option;
      (** Throughput of sections that measure one ([concheck], the serve
          load, the surrogate section); [None] for plain timing records.
          Purely informational — matching and regression gating stay
          seconds-based, so mixing throughput records into a bench file
          never breaks the baseline diff. *)
  rate_unit : string option;  (** Display unit of [rate], e.g. ["sess/s"]. *)
  max_regress : float option;
      (** Regression bound in percent.  Every comparable record of a
          baseline has one ({!load_baseline}); the harness writes none. *)
}

type delta = {
  section : string;
  scale : string;
  jobs : int;
  baseline_s : float;
  current_s : float;
  delta_pct : float;  (** [(current - baseline) / baseline * 100]. *)
  baseline_rate : float option;
  current_rate : float option;
  rate_unit : string option;  (** From the current record when present. *)
  max_regress : float option;  (** The baseline record's bound. *)
}

type diff = {
  deltas : delta list;  (** Matched pairs, in current-file order. *)
  baseline_records : int;  (** Records read on each side. *)
  current_records : int;
  skipped_baseline : int;  (** Baseline records without a manifest. *)
  skipped_current : int;
  unmatched : int;  (** Comparable current records with no baseline. *)
}

val record_of_json : Json.t -> (record, string) result
val of_json : Json.t -> (record list, string) result

val load : string -> (record list, string) result
(** Read a flat JSON array of bench records, as written by {!append}. *)

val load_baseline : string -> (record list, string) result
(** {!load}, failing if a comparable record has no [max_regress]. *)

val record :
  manifest:Manifest.t ->
  section:string ->
  seconds:float ->
  ?rate:float * string ->
  ?extras:(string * Json.t) list ->
  unit ->
  Json.t
(** One bench record: [section], [seconds] and {!Manifest.fields} (so
    the manifest's [scale] and [jobs] are the record's), then [rate] as
    a ["rate"]/["rate_unit"] pair, then [extras]. *)

val append : string -> Json.t list -> (unit, string) result
(** Append records to the bench file at the path, creating it if
    missing, and rewrite the array one record per line.  Holds an
    exclusive [Unix.lockf] lock for the whole read-modify-write, so
    processes appending at once never lose or tear each other's
    records.  Refuses, leaving the file untouched, when the file is not
    a JSON array or when any record, old or new, does not load. *)

val diff : baseline:record list -> current:record list -> diff

val regressions : diff -> delta list
(** Deltas slower than their bound; a delta without one never
    regresses. *)

type verdict =
  | Pass  (** At least one section compared, none beyond its bound. *)
  | Skip  (** No record was comparable, so nothing was gated. *)
  | Regression  (** Some section slowed down beyond its bound. *)

val verdict : diff -> verdict * string
(** The gate's verdict and the line that states it.  A diff that
    compared no record is a [Skip], whose line names the record counts
    of both sides, never a pass over 0 sections.  Only a [Regression]
    fails the gate. *)

val render : diff -> string
(** Plain-text table with each delta's bound; marks the {!regressions}
    as REGRESSION. *)
