type span = {
  phase : string option;
  domain : int;
  start : float;
  dur : float;
  err : bool;
}

type phase_row = {
  phase : string;
  span_count : int;
  total_s : float;
  self_s : float;
}

type t = {
  manifest : Manifest.t option;
  span_count : int;
  error_count : int;
  domain_count : int;
  wall_s : float;
  busy_s : float;
  rows : phase_row list;
}

let other_phase = "(other)"

let span_of_json j =
  let int key = Option.bind (Json.member key j) Json.to_int_opt in
  let float key = Option.bind (Json.member key j) Json.to_float_opt in
  let str key = Option.bind (Json.member key j) Json.to_string_opt in
  match (int "id", float "start", float "dur") with
  | Some _, Some start, Some dur ->
      Ok
        {
          phase = str "phase";
          domain = Option.value ~default:0 (int "domain");
          start;
          dur;
          err =
            Option.value ~default:false
              (Option.bind (Json.member "err" j) Json.to_bool_opt);
        }
  | _ -> Error "span line missing id/start/dur"

let of_lines lines =
  let exception Bad of string in
  try
    let manifest = ref None in
    let spans = ref [] in
    List.iteri
      (fun lineno line ->
        if String.trim line <> "" then
          match Json.of_string line with
          | Error e -> raise (Bad (Printf.sprintf "line %d: %s" (lineno + 1) e))
          | Ok j -> (
              match
                Option.bind (Json.member "ev" j) Json.to_string_opt
              with
              | Some "span" -> (
                  match span_of_json j with
                  | Ok s -> spans := s :: !spans
                  | Error e ->
                      raise (Bad (Printf.sprintf "line %d: %s" (lineno + 1) e)))
              | Some "manifest" ->
                  if !manifest = None then
                    manifest := Result.to_option (Manifest.of_json j)
              | Some _ | None -> ()))
      lines;
    let spans = Array.of_list (List.rev !spans) in
    if Array.length spans = 0 then Error "no spans in trace"
    else begin
      (* Self-time attribution is by *physical* nesting, not the logical
         parent field: execution on one domain is single-threaded, so the
         spans of a domain nest by interval containment — including spans
         the pool's helping scheduler ran inline inside another task's
         wait loop, which are logically parented elsewhere.  Each span is
         charged its duration minus its immediate physically-nested
         spans; self times then partition each domain's covered time, so
         at jobs=1 busy time equals wall time up to tracing overhead. *)
      let child_dur = Array.make (Array.length spans) 0.0 in
      let by_domain : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
      Array.iteri
        (fun i s ->
          match Hashtbl.find_opt by_domain s.domain with
          | Some l -> l := i :: !l
          | None -> Hashtbl.add by_domain s.domain (ref [ i ]))
        spans;
      Hashtbl.iter
        (fun _ idxs ->
          let idxs = Array.of_list !idxs in
          (* Outer intervals first: by start, then by longest duration. *)
          Array.sort
            (fun a b ->
              match Float.compare spans.(a).start spans.(b).start with
              | 0 -> Float.compare spans.(b).dur spans.(a).dur
              | c -> c)
            idxs;
          let stack = ref [] in
          Array.iter
            (fun i ->
              let s = spans.(i) in
              let rec unwind () =
                match !stack with
                | (top_end, _) :: rest when top_end <= s.start ->
                    stack := rest;
                    unwind ()
                | _ -> ()
              in
              unwind ();
              (match !stack with
              | (_, p) :: _ -> child_dur.(p) <- child_dur.(p) +. s.dur
              | [] -> ());
              stack := (s.start +. s.dur, i) :: !stack)
            idxs)
        by_domain;
      let rows : (string, int ref * float ref * float ref) Hashtbl.t =
        Hashtbl.create 16
      in
      let domains = Hashtbl.create 8 in
      let errors = ref 0 in
      let busy = ref 0.0 in
      let t_min = ref infinity and t_max = ref neg_infinity in
      Array.iteri
        (fun i s ->
          if s.err then incr errors;
          Hashtbl.replace domains s.domain ();
          t_min := Float.min !t_min s.start;
          t_max := Float.max !t_max (s.start +. s.dur);
          let self = Float.max 0.0 (s.dur -. child_dur.(i)) in
          busy := !busy +. self;
          let phase = Option.value ~default:other_phase s.phase in
          let count, total, self_acc =
            match Hashtbl.find_opt rows phase with
            | Some r -> r
            | None ->
                let r = (ref 0, ref 0.0, ref 0.0) in
                Hashtbl.add rows phase r;
                r
          in
          incr count;
          total := !total +. s.dur;
          self_acc := !self_acc +. self)
        spans;
      let rows =
        Hashtbl.fold
          (fun phase (count, total, self) acc ->
            {
              phase;
              span_count = !count;
              total_s = !total;
              self_s = !self;
            }
            :: acc)
          rows []
        |> List.sort (fun a b ->
               match Float.compare b.self_s a.self_s with
               | 0 -> String.compare a.phase b.phase
               | c -> c)
      in
      Ok
        {
          manifest = !manifest;
          span_count = Array.length spans;
          error_count = !errors;
          domain_count = Hashtbl.length domains;
          wall_s = !t_max -. !t_min;
          busy_s = !busy;
          rows;
        }
    end
  with Bad msg -> Error msg

let of_file path =
  match In_channel.with_open_text path In_channel.input_lines with
  | lines -> of_lines lines
  | exception Sys_error e -> Error e

let share t row =
  if t.busy_s <= 0.0 then 0.0 else 100.0 *. row.self_s /. t.busy_s

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "trace summary: %d spans, %d error(s), %d domain(s)\n"
       t.span_count t.error_count t.domain_count);
  (match t.manifest with
  | Some m -> Buffer.add_string buf ("manifest: " ^ Manifest.summary m ^ "\n")
  | None -> ());
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "  %-20s %8s %12s %12s %8s\n" "phase" "spans" "total (s)"
       "self (s)" "share");
  Buffer.add_string buf (Printf.sprintf "  %s\n" (String.make 64 '-'));
  List.iter
    (fun row ->
      Buffer.add_string buf
        (Printf.sprintf "  %-20s %8d %12.4f %12.4f %7.1f%%\n" row.phase
           row.span_count row.total_s row.self_s (share t row)))
    t.rows;
  Buffer.add_char buf '\n';
  let phase_sum = List.fold_left (fun acc r -> acc +. r.self_s) 0.0 t.rows in
  Buffer.add_string buf
    (Printf.sprintf
       "phases sum to %.4f s = %.1f%% of attributed time (%.4f s busy)\n"
       phase_sum
       (if t.busy_s > 0.0 then 100.0 *. phase_sum /. t.busy_s else 0.0)
       t.busy_s);
  Buffer.add_string buf
    (Printf.sprintf "wall clock %.4f s across %d domain(s)%s\n" t.wall_s
       t.domain_count
       (if t.domain_count = 1 && t.wall_s > 0.0 then
          Printf.sprintf " (busy/wall = %.1f%%)" (100.0 *. t.busy_s /. t.wall_s)
        else ""));
  Buffer.contents buf

let violations t ~max_share =
  List.filter_map
    (fun row ->
      let s = share t row in
      if s > max_share then
        Some
          (Printf.sprintf
             "phase %S takes %.1f%% of attributed time (bound: %.1f%%)"
             row.phase s max_share)
      else None)
    t.rows
