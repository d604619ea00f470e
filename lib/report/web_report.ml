module Events = Altune_obs.Events
module Summary = Altune_obs.Summary
module Manifest = Altune_obs.Manifest
module Bench_diff = Altune_obs.Bench_diff
module Json = Altune_obs.Json

type inputs = {
  events : Events.t list;
  manifest : Manifest.t option;
  summary : Summary.t option;
  bench : Bench_diff.record list;
}

let empty = { events = []; manifest = None; summary = None; bench = [] }

(* --- Input loading ----------------------------------------------------- *)

(* A bench file is a flat JSON array (starts with '['); everything else
   is JSONL that can hold learner events, spans and a manifest in any
   mix — each reader picks out its own lines. *)
let add_file acc path =
  let ( let* ) = Result.bind in
  let* lines =
    try Ok (In_channel.with_open_text path In_channel.input_lines)
    with Sys_error e -> Error e
  in
  let first_payload =
    List.find_opt (fun l -> String.trim l <> "") lines
  in
  match first_payload with
  | None -> Ok acc
  | Some l when (String.trim l).[0] = '[' ->
      let* j = Json.of_string (String.concat "\n" lines) in
      let* records = Bench_diff.of_json j in
      Ok { acc with bench = acc.bench @ records }
  | Some _ ->
      let* ev = Events.of_lines lines in
      let summary =
        match acc.summary with
        | Some _ as s -> s
        | None -> Result.to_option (Summary.of_lines lines)
      in
      let manifest =
        match acc.manifest with Some _ as m -> m | None -> ev.manifest
      in
      Ok
        {
          acc with
          events = acc.events @ ev.events;
          manifest;
          summary;
        }

let load paths =
  List.fold_left
    (fun acc path -> Result.bind acc (fun acc -> add_file acc path))
    (Ok empty) paths

(* --- Event regrouping -------------------------------------------------- *)

(* Run keys written by the experiment harness are
   [bench/scale/plan/rep]; anything else (e.g. `altune tune`'s single
   run) is shown as its own group. *)
let parse_run run =
  match String.split_on_char '/' run with
  | [ bench; scale; tag; rep ] ->
      ( Printf.sprintf "%s/%s" bench scale,
        tag,
        Option.value ~default:0 (int_of_string_opt rep) )
  | _ -> ((if run = "" then "(run)" else run), "run", 0)

type run_events = {
  group : string;  (** "bench/scale" *)
  tag : string;  (** plan label *)
  rep : int;
  selects : Events.select list;
  evals : Events.eval list;
}

let runs_of_events events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (ev : Events.t) ->
      let k = ev.run in
      let cur =
        match Hashtbl.find_opt tbl k with
        | Some r -> r
        | None ->
            let group, tag, rep = parse_run k in
            { group; tag; rep; selects = []; evals = [] }
      in
      let cur =
        match ev.kind with
        | Events.Select s -> { cur with selects = s :: cur.selects }
        | Events.Eval e -> { cur with evals = e :: cur.evals }
        | Events.Start _ | Events.Finish _ | Events.Fault _ -> cur
      in
      Hashtbl.replace tbl k cur)
    events;
  (* Events arrive sorted by (run, seq); per-run lists were prepended. *)
  let runs =
    Hashtbl.fold
      (fun _ r acc ->
        { r with selects = List.rev r.selects; evals = List.rev r.evals }
        :: acc)
      tbl []
  in
  List.sort
    (fun a b ->
      match String.compare a.group b.group with
      | 0 -> (
          match String.compare a.tag b.tag with
          | 0 -> compare a.rep b.rep
          | c -> c)
      | c -> c)
    runs

let groups runs =
  List.sort_uniq String.compare (List.map (fun r -> r.group) runs)

let tags_in group runs =
  List.sort_uniq String.compare
    (List.filter_map
       (fun r -> if r.group = group then Some r.tag else None)
       runs)

let reps_of group tag runs =
  List.filter (fun r -> r.group = group && r.tag = tag) runs

(* Pointwise average across repetitions, index-matched and truncated to
   the shortest — the same reduction as [Experiment.average_curves], so
   report curves agree with the text tables to the last bit. *)
let average_indexed lists f =
  match List.filter (fun l -> l <> []) lists with
  | [] -> []
  | lists ->
      let shortest =
        List.fold_left
          (fun acc l -> min acc (List.length l))
          max_int lists
      in
      let arrays = List.map Array.of_list lists in
      List.init shortest (fun i ->
          (* Average only the finite contributions: one repetition without
             (say) tree stats yields nan and must not poison the mean of
             the repetitions that do have data.  When every contribution
             is finite this is the plain mean, bit-for-bit (same order,
             same sum, same divisor). *)
          let points = List.map (fun a -> f a.(i)) arrays in
          let finite = List.filter Float.is_finite points in
          match finite with
          | [] -> nan
          | _ ->
              List.fold_left ( +. ) 0.0 finite
              /. float_of_int (List.length finite))

let averaged_eval_series group runs ~x ~y =
  List.map
    (fun tag ->
      let reps = List.map (fun r -> r.evals) (reps_of group tag runs) in
      let xs = average_indexed reps x in
      let ys = average_indexed reps y in
      (tag, List.combine xs ys))
    (tags_in group runs)

(* Cumulative revisit fraction after each selection, averaged across
   repetitions by selection index. *)
let revisit_series group runs =
  List.map
    (fun tag ->
      let per_rep =
        List.map
          (fun r ->
            let n = ref 0 and rev = ref 0 in
            List.map
              (fun (s : Events.select) ->
                incr n;
                if s.revisit then incr rev;
                float_of_int !rev /. float_of_int !n)
              r.selects)
          (reps_of group tag runs)
      in
      let ys = average_indexed per_rep Fun.id in
      (tag, List.mapi (fun i y -> (float_of_int (i + 1), y)) ys))
    (tags_in group runs)

(* Per-dimension split frequencies of the final tree posterior, averaged
   over every run in the group that reported tree stats. *)
let sensitivity group runs =
  let finals =
    List.filter_map
      (fun r ->
        if r.group <> group then None
        else
          List.fold_left
            (fun acc (e : Events.eval) ->
              match e.tree with Some t -> Some t | None -> acc)
            None r.evals)
      runs
  in
  match finals with
  | [] -> []
  | first :: _ ->
      let dim = Array.length first.split_frequencies in
      let finals =
        List.filter
          (fun (t : Events.tree_stats) ->
            Array.length t.split_frequencies = dim)
          finals
      in
      let k = float_of_int (List.length finals) in
      List.init dim (fun d ->
          ( Printf.sprintf "dim %d" d,
            List.fold_left
              (fun acc (t : Events.tree_stats) ->
                acc +. t.split_frequencies.(d))
              0.0 finals
            /. k ))

(* --- CSV export -------------------------------------------------------- *)

let g v = if Float.is_finite v then Printf.sprintf "%.12g" v else ""

let csv_header =
  [
    "run"; "seq"; "kind"; "iteration"; "config"; "score"; "revisit";
    "config_obs"; "examples"; "observations"; "cost_s"; "rmse";
    "ref_variance"; "tree_mean_leaves"; "tree_max_depth";
  ]

let csv_row (ev : Events.t) =
  let i = string_of_int in
  let base kind = [ ev.run; i ev.seq; kind ] in
  let pad row = row @ List.init (List.length csv_header - List.length row) (fun _ -> "") in
  pad
    (match ev.kind with
    | Start _ -> base "start"
    | Select s ->
        base "select"
        @ [
            i s.iteration; s.config; g s.score;
            (if s.revisit then "1" else "0");
            i s.config_obs; i s.examples; i s.observations; g s.cost_s;
          ]
    | Eval e ->
        base "eval"
        @ [
            i e.iteration; ""; ""; ""; "";
            i e.examples; i e.observations; g e.cost_s; g e.rmse;
            g e.ref_variance;
          ]
        @ (match e.tree with
          | None -> []
          | Some t -> [ g t.mean_leaves; i t.max_depth ])
    | Finish f ->
        base "finish"
        @ [ i f.iterations; ""; ""; ""; "";
            i f.examples; i f.observations; g f.cost_s; g f.rmse ]
    | Fault f ->
        (* The fault type rides in the kind column; attempt reuses the
           config_obs column and lost seconds the cost_s column, keeping
           the header stable for existing consumers. *)
        base ("fault:" ^ f.fault)
        @ [ ""; f.config; ""; ""; i f.attempt; ""; ""; g f.lost_s ])

let events_csv events =
  Report.Csv.to_string ~header:csv_header ~rows:(List.map csv_row events)

let write_events_csv ~path events =
  Report.Csv.write ~path ~header:csv_header ~rows:(List.map csv_row events)

(* --- HTML rendering ---------------------------------------------------- *)

let pts_rows pts = List.map (fun (x, y) -> [ g x; g y ]) pts

let series_tables series ~xh ~yh =
  String.concat ""
    (List.map
       (fun (tag, pts) ->
         Html.details_table
           ~summary:(Printf.sprintf "data: %s" tag)
           ~headers:[ xh; yh ] ~rows:(pts_rows pts))
       series)

let chart_with_table ~caption ~logx ~xlabel ~ylabel series =
  Html.figure ~caption
    (Svg.line_chart ~logx ~xlabel ~ylabel series
    ^ series_tables series ~xh:xlabel ~yh:ylabel)

let learner_sections runs =
  String.concat ""
    (List.map
       (fun group ->
         let error =
           averaged_eval_series group runs
             ~x:(fun (e : Events.eval) -> e.cost_s)
             ~y:(fun (e : Events.eval) -> e.rmse)
         in
         let variance =
           averaged_eval_series group runs
             ~x:(fun (e : Events.eval) -> e.cost_s)
             ~y:(fun (e : Events.eval) -> e.ref_variance)
         in
         let leaves =
           averaged_eval_series group runs
             ~x:(fun (e : Events.eval) -> e.cost_s)
             ~y:(fun (e : Events.eval) ->
               match e.tree with Some t -> t.mean_leaves | None -> nan)
         in
         let revisits = revisit_series group runs in
         let sens = sensitivity group runs in
         Html.section ~title:group
           ~intro:
             "Curves are averaged over repetitions, matched by evaluation \
              index (the reduction used for the paper's tables)."
           (Html.row
              [
                chart_with_table ~caption:"Held-out error vs simulated cost"
                  ~logx:true ~xlabel:"cost (s)" ~ylabel:"RMSE" error;
                chart_with_table
                  ~caption:"Reference-set predictive variance (ALC objective)"
                  ~logx:true ~xlabel:"cost (s)" ~ylabel:"mean variance"
                  variance;
              ]
           ^ Html.row
               ([
                  chart_with_table
                    ~caption:
                      "Cumulative revisit fraction (repeated measurements of \
                       already-visited configurations)"
                    ~logx:false ~xlabel:"selection #"
                    ~ylabel:"revisit fraction" revisits;
                ]
               @
               if List.exists (fun (_, pts) -> pts <> []) leaves then
                 [
                   chart_with_table
                     ~caption:"Dynamic-tree size (mean leaves per particle)"
                     ~logx:true ~xlabel:"cost (s)" ~ylabel:"mean leaves"
                     leaves;
                 ]
               else [])
           ^
           if sens = [] then ""
           else
             Html.figure
               ~caption:
                 "Sensitivity proxy: share of posterior tree splits per \
                  input dimension (final model, all runs)"
               (Svg.bar_chart ~xlabel:"split frequency" sens
               ^ Html.details_table ~summary:"data: split frequencies"
                   ~headers:[ "dimension"; "frequency" ]
                   ~rows:(List.map (fun (d, v) -> [ d; g v ]) sens))))
       (groups runs))

let summary_section (s : Summary.t) =
  Html.section ~title:"Trace summary"
    ~intro:
      (Printf.sprintf
         "%d spans on %d domain(s); %.2fs wall, %.2fs attributed."
         s.span_count s.domain_count s.wall_s s.busy_s)
    (Html.table
       ~headers:[ "phase"; "spans"; "total (s)"; "self (s)"; "share" ]
       ~rows:
         (List.map
            (fun (r : Summary.phase_row) ->
              [
                r.phase;
                string_of_int r.span_count;
                Printf.sprintf "%.3f" r.total_s;
                Printf.sprintf "%.3f" r.self_s;
                Printf.sprintf "%.1f%%" (Summary.share s r);
              ])
            s.rows))

let bench_section records =
  Html.section ~title:"Benchmark timings"
    ~intro:"Per-section wall times from BENCH_harness.json."
    (Html.table
       ~headers:[ "section"; "scale"; "jobs"; "seconds"; "host"; "cores"; "git" ]
       ~rows:
         (List.map
            (fun (r : Bench_diff.record) ->
              [
                r.section;
                r.scale;
                string_of_int r.jobs;
                Printf.sprintf "%.3f" r.seconds;
                Option.value ~default:"-" r.host;
                (match r.cores with Some c -> string_of_int c | None -> "-");
                Option.value ~default:"-" r.git_rev;
              ])
            records))

let render inputs =
  let subtitle =
    match inputs.manifest with
    | Some m -> Manifest.summary m
    | None -> "no manifest recorded"
  in
  let runs = runs_of_events inputs.events in
  let body =
    (if runs = [] then ""
     else learner_sections runs)
    ^ (match inputs.summary with Some s -> summary_section s | None -> "")
    ^ (match inputs.bench with [] -> "" | r -> bench_section r)
  in
  let body =
    if body = "" then
      Html.section ~title:"Empty report"
        "No learner events, trace spans or bench records were found in the \
         input files."
    else body
  in
  Html.page ~title:"altune experiment report" ~subtitle body
