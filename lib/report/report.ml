let f3 x =
  if Float.is_nan x then "nan"
  else if Float.is_integer x && Float.abs x < 1e7 then
    Printf.sprintf "%.0f" x
  else if Float.abs x >= 1000.0 || (Float.abs x < 0.001 && x <> 0.0) then
    Printf.sprintf "%.3g" x
  else Printf.sprintf "%.3f" x

let sci x = Printf.sprintf "%.2e" x

let looks_numeric s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= '0' && c <= '9')
         || c = '.' || c = '-' || c = '+' || c = 'e' || c = 'E' || c = 'x')
       s

module Table = struct
  let render ~headers ~rows =
    let all = headers :: rows in
    let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
    let pad r = r @ List.init (cols - List.length r) (fun _ -> "") in
    let all = List.map pad all in
    let widths = Array.make cols 0 in
    List.iter
      (List.iteri (fun i cell ->
           widths.(i) <- max widths.(i) (String.length cell)))
      all;
    (* A column is right-aligned if every non-header cell looks numeric. *)
    let right = Array.make cols true in
    List.iteri
      (fun r row ->
        if r > 0 then
          List.iteri
            (fun i cell ->
              if cell <> "" && not (looks_numeric cell) then
                right.(i) <- false)
            row)
      all;
    let buf = Buffer.create 1024 in
    let emit row =
      List.iteri
        (fun i cell ->
          if i > 0 then Buffer.add_string buf "  ";
          let pad = widths.(i) - String.length cell in
          if right.(i) then begin
            Buffer.add_string buf (String.make pad ' ');
            Buffer.add_string buf cell
          end
          else begin
            Buffer.add_string buf cell;
            Buffer.add_string buf (String.make pad ' ')
          end)
        row;
      Buffer.add_char buf '\n'
    in
    (match all with
    | header :: body ->
        emit header;
        let rule_width =
          Array.fold_left ( + ) 0 widths + (2 * (cols - 1))
        in
        Buffer.add_string buf (String.make rule_width '-');
        Buffer.add_char buf '\n';
        List.iter emit body
    | [] -> ());
    Buffer.contents buf
end

module Plot = struct
  let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@' |]

  let line ?(logx = false) ~title ~xlabel ~ylabel series =
    let width = 72 and height = 20 in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf title;
    Buffer.add_char buf '\n';
    let points =
      List.concat_map
        (fun (_, pts) ->
          List.filter
            (fun (x, y) ->
              Float.is_finite x && Float.is_finite y
              && ((not logx) || x > 0.0))
            pts)
        series
    in
    if points = [] then begin
      Buffer.add_string buf "  (no data)\n";
      Buffer.contents buf
    end
    else begin
      let tx x = if logx then log10 x else x in
      let xs = List.map (fun (x, _) -> tx x) points in
      let ys = List.map snd points in
      let xmin = List.fold_left Float.min (List.hd xs) xs in
      let xmax = List.fold_left Float.max (List.hd xs) xs in
      let ymin = List.fold_left Float.min (List.hd ys) ys in
      let ymax = List.fold_left Float.max (List.hd ys) ys in
      let xspan = if xmax > xmin then xmax -. xmin else 1.0 in
      let yspan = if ymax > ymin then ymax -. ymin else 1.0 in
      let grid = Array.make_matrix height width ' ' in
      List.iteri
        (fun si (_, pts) ->
          let glyph = glyphs.(si mod Array.length glyphs) in
          List.iter
            (fun (x, y) ->
              if
                Float.is_finite x && Float.is_finite y
                && ((not logx) || x > 0.0)
              then begin
                let cx =
                  int_of_float
                    (Float.round
                       ((tx x -. xmin) /. xspan *. float_of_int (width - 1)))
                in
                let cy =
                  height - 1
                  - int_of_float
                      (Float.round
                         ((y -. ymin) /. yspan *. float_of_int (height - 1)))
                in
                if cx >= 0 && cx < width && cy >= 0 && cy < height then
                  grid.(cy).(cx) <- glyph
              end)
            pts)
        series;
      Buffer.add_string buf
        (Printf.sprintf "%s (top %s, bottom %s)\n" ylabel (f3 ymax) (f3 ymin));
      Array.iter
        (fun row ->
          Buffer.add_string buf "  |";
          Array.iter (Buffer.add_char buf) row;
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_string buf "  +";
      Buffer.add_string buf (String.make width '-');
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (Printf.sprintf "   %s%s: %s .. %s\n"
           (if logx then "log " else "")
           xlabel
           (f3 (if logx then 10.0 ** xmin else xmin))
           (f3 (if logx then 10.0 ** xmax else xmax)));
      List.iteri
        (fun si (name, _) ->
          Buffer.add_string buf
            (Printf.sprintf "   %c %s\n"
               glyphs.(si mod Array.length glyphs)
               name))
        series;
      Buffer.contents buf
    end

  let bars ~title entries =
    let width = 50 in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf title;
    Buffer.add_char buf '\n';
    let vmax =
      List.fold_left (fun m (_, v) -> Float.max m v) 0.0 entries
    in
    let label_width =
      List.fold_left (fun m (l, _) -> max m (String.length l)) 0 entries
    in
    List.iter
      (fun (label, v) ->
        let n =
          if vmax <= 0.0 then 0
          else
            int_of_float
              (Float.round (v /. vmax *. float_of_int width))
        in
        Buffer.add_string buf
          (Printf.sprintf "  %-*s | %s %s\n" label_width label
             (String.make (max n (if v > 0.0 then 1 else 0)) '#')
             (f3 v)))
      entries;
    Buffer.contents buf

  let shades = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |]

  let heat ~title ~xlabel ~ylabel ~rows ~cols f =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf title;
    Buffer.add_char buf '\n';
    let values =
      Array.init rows (fun r -> Array.init cols (fun c -> f r c))
    in
    let vmin = ref infinity and vmax = ref neg_infinity in
    Array.iter
      (Array.iter (fun v ->
           if Float.is_finite v then begin
             vmin := Float.min !vmin v;
             vmax := Float.max !vmax v
           end))
      values;
    let span = if !vmax > !vmin then !vmax -. !vmin else 1.0 in
    for r = rows - 1 downto 0 do
      Buffer.add_string buf "  |";
      for c = 0 to cols - 1 do
        let v = values.(r).(c) in
        let g =
          if not (Float.is_finite v) then '?'
          else begin
            let i =
              int_of_float
                ((v -. !vmin) /. span *. float_of_int (Array.length shades - 1))
            in
            shades.(max 0 (min (Array.length shades - 1) i))
          end
        in
        Buffer.add_char buf g
      done;
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf "  +";
    Buffer.add_string buf (String.make cols '-');
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Printf.sprintf "   x: %s, y: %s; scale %s (' ') .. %s ('@')\n" xlabel
         ylabel (f3 !vmin) (f3 !vmax));
    Buffer.contents buf
end

module Csv = struct
  let escape cell =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
    else cell

  let to_string ~header ~rows =
    let buf = Buffer.create 1024 in
    let emit row =
      Buffer.add_string buf (String.concat "," (List.map escape row));
      Buffer.add_char buf '\n'
    in
    emit header;
    List.iter emit rows;
    Buffer.contents buf

  let write ~path ~header ~rows =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_string ~header ~rows))
end
