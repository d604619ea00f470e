type record = {
  section : string;
  scale : string;
  jobs : int;
  seconds : float;
  host : string option;
  cores : int option;
  git_rev : string option;
  rate : float option;
  rate_unit : string option;
  max_regress : float option;
}

type delta = {
  section : string;
  scale : string;
  jobs : int;
  baseline_s : float;
  current_s : float;
  delta_pct : float;
  baseline_rate : float option;
  current_rate : float option;
  rate_unit : string option;
  max_regress : float option;
}

type diff = {
  deltas : delta list;
  baseline_records : int;
  current_records : int;
  skipped_baseline : int;
  skipped_current : int;
  unmatched : int;
}

type verdict = Pass | Skip | Regression

(* --- Loading ----------------------------------------------------------- *)

let record_of_json j =
  let str key = Option.bind (Json.member key j) Json.to_string_opt in
  let int key = Option.bind (Json.member key j) Json.to_int_opt in
  let float key = Option.bind (Json.member key j) Json.to_float_opt in
  match (str "section", str "scale", int "jobs", float "seconds") with
  | Some section, Some scale, Some jobs, Some seconds ->
      Ok
        {
          section;
          scale;
          jobs;
          seconds;
          host = str "host";
          cores = int "cores";
          git_rev = str "git_rev";
          rate = float "rate";
          rate_unit = str "rate_unit";
          max_regress = float "max_regress";
        }
  | _ -> Error "bench record: missing section/scale/jobs/seconds"

let of_json = function
  | Json.List items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | j :: rest -> (
            match record_of_json j with
            | Ok r -> go (r :: acc) rest
            | Error e -> Error e)
      in
      go [] items
  | _ -> Error "bench file: expected a JSON array of records"

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Result.bind (Json.of_string s) of_json
  | exception Sys_error e -> Error e

(* --- Writing ----------------------------------------------------------- *)

let record ~manifest ~section ~seconds ?rate ?(extras = []) () =
  let rate =
    match rate with
    | None -> []
    | Some (r, u) -> [ ("rate", Json.Float r); ("rate_unit", Json.String u) ]
  in
  Json.Obj
    ((("section", Json.String section) :: ("seconds", Json.Float seconds)
     :: Manifest.fields manifest)
    @ rate @ extras)

let read_fd fd =
  let len = (Unix.fstat fd).Unix.st_size in
  let buf = Bytes.create len in
  let rec go off =
    if off >= len then off
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> off
      | n -> go (off + n)
  in
  Bytes.sub_string buf 0 (go 0)

let parse_array text =
  if String.trim text = "" then Ok []
  else
    match Json.of_string text with
    | Ok (Json.List items) -> Ok items
    | Ok _ -> Error "bench file: expected a JSON array of records"
    | Error e -> Error e

(* Read-modify-write under an exclusive lock: dune runs bench aliases in
   parallel, all appending to one file, and neither run may lose or tear
   the other's records.  The lock is released when [fd] closes.  The
   existing array is parsed with [Json], so its layout does not matter,
   and the file is rewritten only if every record, old and new, loads. *)
let append path records =
  let ( let* ) = Result.bind in
  try
    let fd =
      Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
    in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    Unix.lockf fd Unix.F_LOCK 0;
    Result.map_error (fun e -> path ^ ": " ^ e)
      (let* existing = parse_array (read_fd fd) in
       let all = existing @ records in
       let* _ = of_json (Json.List all) in
       let lines = List.map (fun j -> "  " ^ Json.to_string j) all in
       let out = "[\n" ^ String.concat ",\n" lines ^ "\n]\n" in
       Unix.ftruncate fd 0;
       ignore (Unix.lseek fd 0 Unix.SEEK_SET);
       ignore (Unix.write_substring fd out 0 (String.length out));
       Ok ())
  with Unix.Unix_error (e, _, _) -> Error (path ^ ": " ^ Unix.error_message e)

(* --- Matching ---------------------------------------------------------- *)

(* A record is comparable only if it carries its manifest: timings from
   unknown hosts (or pre-manifest history) cannot be meaningfully
   diffed. *)
let comparable (r : record) = Option.is_some r.host && Option.is_some r.cores

(* A baseline gates with the bound each record carries: a comparable
   record without one would gate at a guessed threshold, so it fails the
   load instead. *)
let load_baseline path =
  Result.bind (load path) (fun records ->
      match
        List.find_opt (fun r -> comparable r && r.max_regress = None) records
      with
      | None -> Ok records
      | Some r ->
          Error
            (Printf.sprintf "%s: baseline record %s/%s/jobs %d has no max_regress"
               path r.section r.scale r.jobs))

let key (r : record) =
  ( r.section,
    r.scale,
    r.jobs,
    Option.value ~default:"" r.host,
    Option.value ~default:0 r.cores )

(* Last record wins per key: the harness appends, so the newest timing of
   a configuration is the current truth. *)
let latest_by_key records =
  let tbl = Hashtbl.create 16 in
  List.iter (fun r -> if comparable r then Hashtbl.replace tbl (key r) r) records;
  tbl

let diff ~baseline ~current =
  let base_tbl = latest_by_key baseline in
  let skipped_baseline =
    List.length (List.filter (fun r -> not (comparable r)) baseline)
  in
  let skipped_current =
    List.length (List.filter (fun r -> not (comparable r)) current)
  in
  (* Dedupe current keeping the last occurrence, preserving first-seen
     order so the report reads in file order. *)
  let cur_tbl = latest_by_key current in
  let seen = Hashtbl.create 16 in
  let deltas, unmatched =
    List.fold_left
      (fun (deltas, unmatched) r ->
        if not (comparable r) then (deltas, unmatched)
        else
          let k = key r in
          if Hashtbl.mem seen k then (deltas, unmatched)
          else begin
            Hashtbl.add seen k ();
            let r = Hashtbl.find cur_tbl k in
            match Hashtbl.find_opt base_tbl k with
            | None -> (deltas, unmatched + 1)
            | Some b ->
                let delta_pct =
                  if b.seconds > 0.0 then
                    (r.seconds -. b.seconds) /. b.seconds *. 100.0
                  else 0.0
                in
                ( {
                    section = r.section;
                    scale = r.scale;
                    jobs = r.jobs;
                    baseline_s = b.seconds;
                    current_s = r.seconds;
                    delta_pct;
                    baseline_rate = b.rate;
                    current_rate = r.rate;
                    (* Units come from the current side; a unit change
                       between files means the section was repurposed
                       and the rates are incomparable anyway. *)
                    rate_unit = (match r.rate_unit with
                      | Some _ as u -> u
                      | None -> b.rate_unit);
                    max_regress = b.max_regress;
                  }
                  :: deltas,
                  unmatched )
          end)
      ([], 0) current
  in
  let baseline_records = List.length baseline in
  let current_records = List.length current in
  { deltas = List.rev deltas; baseline_records; current_records;
    skipped_baseline; skipped_current; unmatched }

let regressed dl =
  match dl.max_regress with Some m -> dl.delta_pct > m | None -> false

let regressions d = List.filter regressed d.deltas

let verdict d =
  match regressions d with
  | _ :: _ as rs ->
      ( Regression,
        Printf.sprintf "bench-diff: %d section(s) regressed beyond their bound"
          (List.length rs) )
  | [] when d.deltas = [] ->
      ( Skip,
        Printf.sprintf
          "bench-diff: skipped, nothing compared: none of %d current \
           record(s) shares section, scale, jobs, host and cores with one \
           of %d baseline record(s)"
          d.current_records d.baseline_records )
  | [] ->
      ( Pass,
        Printf.sprintf
          "bench-diff: no regression beyond its bound (%d comparable \
           section(s))"
          (List.length d.deltas) )

(* --- Rendering --------------------------------------------------------- *)

let render d =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-10s %-9s %4s %12s %12s %9s %6s\n" "section" "scale"
       "jobs" "baseline(s)" "current(s)" "delta" "bound");
  List.iter
    (fun dl ->
      let flag = if regressed dl then "  REGRESSION" else "" in
      let bound =
        match dl.max_regress with
        | Some m -> Printf.sprintf "%.0f%%" m
        | None -> "-"
      in
      let rate =
        match (dl.baseline_rate, dl.current_rate) with
        | Some b, Some c ->
            Printf.sprintf "  (%.0f -> %.0f %s)" b c
              (Option.value ~default:"" dl.rate_unit)
        | _ -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "%-10s %-9s %4d %12.3f %12.3f %+8.1f%% %6s%s%s\n"
           dl.section dl.scale dl.jobs dl.baseline_s dl.current_s dl.delta_pct
           bound flag rate))
    d.deltas;
  if d.skipped_baseline > 0 || d.skipped_current > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "skipped %d baseline / %d current record(s) without a manifest\n"
         d.skipped_baseline d.skipped_current);
  if d.unmatched > 0 then
    Buffer.add_string buf
      (Printf.sprintf "%d current record(s) had no matching baseline\n"
         d.unmatched);
  Buffer.contents buf
