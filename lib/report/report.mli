(** Plain-text rendering of the reproduction's tables and figures: aligned
    ASCII tables, unicode line/bar plots for the error-over-cost figures,
    and CSV export for external plotting. *)

module Table : sig
  val render : headers:string list -> rows:string list list -> string
  (** Aligned table with a header rule.  Numeric-looking cells are
      right-aligned, text cells left-aligned. *)
end

module Plot : sig
  val line :
    ?logx:bool ->
    title:string ->
    xlabel:string ->
    ylabel:string ->
    (string * (float * float) list) list ->
    string
  (** Multi-series scatter/line plot on a 72 x 20 character grid; each
      series gets a distinct glyph, with a legend. *)

  val bars : title:string -> (string * float) list -> string
  (** Horizontal bar chart, bars up to 50 characters long (used for the
      paper's Figure 5). *)

  val heat :
    title:string ->
    xlabel:string ->
    ylabel:string ->
    rows:int ->
    cols:int ->
    (int -> int -> float) ->
    string
  (** Character heat map over a grid (used for Figure 1), darker glyph =
      larger value. *)
end

module Csv : sig
  val to_string : header:string list -> rows:string list list -> string
  val write : path:string -> header:string list -> rows:string list list -> unit
end

val f3 : float -> string
(** Compact significant-digit formatting for table cells. *)

val sci : float -> string
(** Scientific notation like the paper's Table 1 ("3.78e14"). *)
