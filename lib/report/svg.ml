(* Hand-rolled SVG charts for the HTML experiment report.  No plotting
   dependency exists in the container, and none is needed: the report
   draws two forms only (multi-series line chart, horizontal bar chart),
   both small enough to emit directly.

   Colors are CSS classes ([s0]..[s5], [bar]) resolved against custom
   properties declared by {!Html.page}, so one SVG serves both the light
   and dark palettes.  Marks follow the house chart rules: 2px lines,
   8px-diameter markers, hairline grid, one axis per chart, a legend for
   two or more series, and a [<title>] tooltip on every mark. *)

let xml_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Shortest float that reads well in a tick label or tooltip. *)
let fmt v =
  if Float.is_integer v && Float.abs v < 1e7 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let px = Printf.sprintf "%.1f"

(* About [target] round tick values covering [lo, hi]. *)
let nice_ticks ?(target = 5) lo hi =
  if not (Float.is_finite lo && Float.is_finite hi) || hi <= lo then [ lo ]
  else begin
    let span = hi -. lo in
    let raw = span /. float_of_int target in
    let mag = 10.0 ** Float.round (Float.log10 raw) in
    let step =
      let r = raw /. mag in
      if r < 0.3 then 0.25 *. mag
      else if r < 0.75 then 0.5 *. mag
      else if r < 1.5 then mag
      else 2.0 *. mag
    in
    let first = Float.round (lo /. step -. 1e-9) *. step in
    let first = if first < lo -. (1e-9 *. span) then first +. step else first in
    let rec go acc v =
      if v > hi +. (1e-9 *. span) then List.rev acc else go (v :: acc) (v +. step)
    in
    go [] first
  end

(* Powers of ten inside [lo, hi] (already log10-transformed bounds). *)
let log_ticks lo hi =
  let first = Float.of_int (int_of_float (Float.round (ceil lo))) in
  let rec go acc v = if v > hi then List.rev acc else go (v :: acc) (v +. 1.0) in
  match go [] first with
  | _ :: _ :: _ as ticks -> ticks
  | _ -> nice_ticks lo hi

let max_series = 6

type layout = {
  w : int;
  h : int;
  left : float;
  right : float;
  top : float;
  bottom : float;
}

let plot_box l =
  ( l.left,
    l.top,
    float_of_int l.w -. l.right -. l.left,
    float_of_int l.h -. l.bottom -. l.top )

let line_chart ?(logx = false) ?(bands = []) ~xlabel ~ylabel series =
  let series =
    List.map
      (fun (name, pts) ->
        ( name,
          List.filter
            (fun (x, y) ->
              Float.is_finite x && Float.is_finite y
              && ((not logx) || x > 0.0))
            pts ))
      series
  in
  let series = List.filter (fun (_, pts) -> pts <> []) series in
  let omitted = max 0 (List.length series - max_series) in
  let series = List.filteri (fun i _ -> i < max_series) series in
  let buf = Buffer.create 4096 in
  let l =
    {
      w = 560;
      h = 300;
      left = 64.0;
      right = 18.0;
      top = 30.0;
      bottom = 46.0;
    }
  in
  let bx, by, bw, bh = plot_box l in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg viewBox=\"0 0 %d %d\" width=\"%d\" height=\"%d\" \
        role=\"img\" xmlns=\"http://www.w3.org/2000/svg\">\n"
       l.w l.h l.w l.h);
  (match series with
  | [] ->
      Buffer.add_string buf
        (Printf.sprintf
           "<text class=\"tick\" x=\"%s\" y=\"%s\">no data</text>\n"
           (px (bx +. (bw /. 2.0)))
           (px (by +. (bh /. 2.0))))
  | _ ->
      let tx x = if logx then Float.log10 x else x in
      let all = List.concat_map snd series in
      let xs = List.map (fun (x, _) -> tx x) all in
      let ys = List.map snd all in
      let fold f = function [] -> 0.0 | v :: r -> List.fold_left f v r in
      let xmin = fold Float.min xs and xmax = fold Float.max xs in
      let ymin = Float.min 0.0 (fold Float.min ys) in
      let ymax = fold Float.max ys in
      let ymax = if ymax > ymin then ymax else ymin +. 1.0 in
      let xmax = if xmax > xmin then xmax else xmin +. 1.0 in
      let sx x = bx +. ((tx x -. xmin) /. (xmax -. xmin) *. bw) in
      let sy y = by +. bh -. ((y -. ymin) /. (ymax -. ymin) *. bh) in
      (* Annotated bands (e.g. overload tripwires) under everything
         else, clipped to the plot box; zero-width ranges still get a
         visible sliver. *)
      List.iter
        (fun (x0, x1, label) ->
          let x0 = Float.min x0 x1 and x1 = Float.max x0 x1 in
          if
            Float.is_finite x0 && Float.is_finite x1
            && ((not logx) || x0 > 0.0)
          then begin
            let px0 = Float.max bx (sx x0) in
            let px1 = Float.min (bx +. bw) (sx x1) in
            if px1 >= px0 then begin
              Buffer.add_string buf
                (Printf.sprintf
                   "<rect class=\"band\" x=\"%s\" y=\"%s\" width=\"%s\" \
                    height=\"%s\"><title>%s</title></rect>\n"
                   (px px0) (px by)
                   (px (Float.max (px1 -. px0) 2.0))
                   (px bh) (xml_escape label));
              Buffer.add_string buf
                (Printf.sprintf
                   "<text class=\"band-label\" x=\"%s\" y=\"%s\">%s</text>\n"
                   (px (px0 +. 2.0))
                   (px (by +. 10.0))
                   (xml_escape label))
            end
          end)
        bands;
      (* Hairline grid + tick labels. *)
      let xticks = if logx then log_ticks xmin xmax else nice_ticks xmin xmax in
      let yticks = nice_ticks ymin ymax in
      List.iter
        (fun t ->
          let x = bx +. ((t -. xmin) /. (xmax -. xmin) *. bw) in
          Buffer.add_string buf
            (Printf.sprintf
               "<line class=\"grid\" x1=\"%s\" y1=\"%s\" x2=\"%s\" \
                y2=\"%s\"/><text class=\"tick\" x=\"%s\" y=\"%s\" \
                text-anchor=\"middle\">%s</text>\n"
               (px x) (px by) (px x)
               (px (by +. bh))
               (px x)
               (px (by +. bh +. 16.0))
               (xml_escape
                  (if logx then fmt (10.0 ** t) else fmt t))))
        xticks;
      List.iter
        (fun t ->
          let y = sy t in
          Buffer.add_string buf
            (Printf.sprintf
               "<line class=\"grid\" x1=\"%s\" y1=\"%s\" x2=\"%s\" \
                y2=\"%s\"/><text class=\"tick\" x=\"%s\" y=\"%s\" \
                text-anchor=\"end\">%s</text>\n"
               (px bx) (px y)
               (px (bx +. bw))
               (px y)
               (px (bx -. 6.0))
               (px (y +. 4.0))
               (xml_escape (fmt t))))
        yticks;
      (* The one axis: a baseline under the plot. *)
      Buffer.add_string buf
        (Printf.sprintf
           "<line class=\"axis\" x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\"/>\n"
           (px bx)
           (px (by +. bh))
           (px (bx +. bw))
           (px (by +. bh)));
      (* Series: 2px polyline + 8px markers, each with a tooltip. *)
      List.iteri
        (fun si (name, pts) ->
          let cls = Printf.sprintf "s%d" si in
          let path =
            String.concat " "
              (List.map (fun (x, y) -> px (sx x) ^ "," ^ px (sy y)) pts)
          in
          Buffer.add_string buf
            (Printf.sprintf "<polyline class=\"line %s\" points=\"%s\"/>\n" cls
               path);
          List.iter
            (fun (x, y) ->
              Buffer.add_string buf
                (Printf.sprintf
                   "<circle class=\"dot %s\" cx=\"%s\" cy=\"%s\" \
                    r=\"4\"><title>%s: (%s, %s)</title></circle>\n"
                   cls (px (sx x)) (px (sy y)) (xml_escape name)
                   (xml_escape (fmt x)) (xml_escape (fmt y))))
            pts)
        series;
      (* Legend (always present for >= 2 series). *)
      if List.length series >= 2 then begin
        let x = ref bx in
        List.iteri
          (fun si (name, _) ->
            let cls = Printf.sprintf "s%d" si in
            Buffer.add_string buf
              (Printf.sprintf
                 "<line class=\"line %s\" x1=\"%s\" y1=\"%s\" x2=\"%s\" \
                  y2=\"%s\"/><text class=\"legend\" x=\"%s\" \
                  y=\"%s\">%s</text>\n"
                 cls (px !x) (px 14.0)
                 (px (!x +. 18.0))
                 (px 14.0)
                 (px (!x +. 23.0))
                 (px 18.0) (xml_escape name));
            x := !x +. 31.0 +. (7.2 *. float_of_int (String.length name)))
          series
      end;
      if omitted > 0 then
        Buffer.add_string buf
          (Printf.sprintf
             "<text class=\"tick\" x=\"%s\" y=\"%s\" \
              text-anchor=\"end\">+%d series omitted</text>\n"
             (px (bx +. bw))
             (px 18.0) omitted));
  (* Axis titles. *)
  Buffer.add_string buf
    (Printf.sprintf
       "<text class=\"label\" x=\"%s\" y=\"%s\" \
        text-anchor=\"middle\">%s</text>\n"
       (px (bx +. (bw /. 2.0)))
       (px (float_of_int l.h -. 10.0))
       (xml_escape xlabel));
  Buffer.add_string buf
    (Printf.sprintf
       "<text class=\"label\" x=\"14\" y=\"%s\" text-anchor=\"middle\" \
        transform=\"rotate(-90 14 %s)\">%s</text>\n"
       (px (by +. (bh /. 2.0)))
       (px (by +. (bh /. 2.0)))
       (xml_escape ylabel));
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let bar_chart ~xlabel entries =
  let width = 560 in
  let entries =
    List.filter (fun (_, v) -> Float.is_finite v && v >= 0.0) entries
  in
  let n = List.length entries in
  let bar_h = 20.0 and gap = 6.0 in
  let left = 110.0 and right = 64.0 and top = 10.0 and bottom = 40.0 in
  let height =
    int_of_float (top +. bottom +. (float_of_int n *. (bar_h +. gap)))
  in
  let bw = float_of_int width -. left -. right in
  let vmax =
    List.fold_left (fun m (_, v) -> Float.max m v) 0.0 entries
  in
  let vmax = if vmax > 0.0 then vmax else 1.0 in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg viewBox=\"0 0 %d %d\" width=\"%d\" height=\"%d\" \
        role=\"img\" xmlns=\"http://www.w3.org/2000/svg\">\n"
       width height width height);
  List.iteri
    (fun i (name, v) ->
      let y = top +. (float_of_int i *. (bar_h +. gap)) in
      let w = v /. vmax *. bw in
      Buffer.add_string buf
        (Printf.sprintf
           "<text class=\"tick\" x=\"%s\" y=\"%s\" \
            text-anchor=\"end\">%s</text>\n"
           (px (left -. 8.0))
           (px (y +. (bar_h /. 2.0) +. 4.0))
           (xml_escape name));
      Buffer.add_string buf
        (Printf.sprintf
           "<rect class=\"bar\" x=\"%s\" y=\"%s\" width=\"%s\" height=\"%s\" \
            rx=\"2\"><title>%s: %s</title></rect>\n"
           (px left) (px y)
           (px (Float.max w 1.0))
           (px bar_h) (xml_escape name) (xml_escape (fmt v)));
      Buffer.add_string buf
        (Printf.sprintf "<text class=\"tick\" x=\"%s\" y=\"%s\">%s</text>\n"
           (px (left +. Float.max w 1.0 +. 6.0))
           (px (y +. (bar_h /. 2.0) +. 4.0))
           (xml_escape (fmt v))))
    entries;
  let base_y = top +. (float_of_int n *. (bar_h +. gap)) in
  Buffer.add_string buf
    (Printf.sprintf
       "<line class=\"axis\" x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\"/>\n"
       (px left) (px base_y)
       (px (left +. bw))
       (px base_y));
  Buffer.add_string buf
    (Printf.sprintf
       "<text class=\"label\" x=\"%s\" y=\"%s\" \
        text-anchor=\"middle\">%s</text>\n"
       (px (left +. (bw /. 2.0)))
       (px (base_y +. 28.0))
       (xml_escape xlabel));
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf
