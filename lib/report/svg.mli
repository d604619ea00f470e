(** Hand-rolled SVG charts for the HTML experiment report.

    Both forms color their marks through CSS classes ([s0]..[s5] for
    line series, [bar] for bars) that {!Html.page} binds to the light
    and dark palettes, so the same SVG adapts to the viewer's color
    scheme.  Output is deterministic: same inputs, same bytes. *)

val xml_escape : string -> string

val line_chart :
  ?logx:bool ->
  ?bands:(float * float * string) list ->
  xlabel:string ->
  ylabel:string ->
  (string * (float * float) list) list ->
  string
(** Multi-series line chart, 560 x 300, with markers, hairline grid,
    tick labels, a legend (for two or more series) and a [<title>]
    tooltip per point.  Non-finite points (and non-positive x under
    [~logx:true]) are dropped.  At most six series are drawn — the
    categorical palette has six slots — and a visible note counts any
    omitted ones.

    [bands] are annotated x-ranges [(x0, x1, label)] (data coordinates)
    drawn as translucent rectangles behind the data — the dashboard's
    overload tripwires.  Bands outside the data's x-range are clipped;
    with no series nothing is drawn. *)

val bar_chart : xlabel:string -> (string * float) list -> string
(** Horizontal bar chart, 560 wide (single-hue: a bar chart encodes
    magnitude, not identity) with per-bar value labels and tooltips.
    Negative and non-finite values are dropped. *)
