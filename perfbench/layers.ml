(* Per-layer instrumentation for traced rounds.

   Everything here lives in the benchmark, outside the program: spans are
   recorded around the calls the benchmark makes into each layer's public
   functions (a wrapped [Problem.t], a delegating [Surrogate.S], and the
   dataset, learner and search entry points), next to the spans the
   program already emits.  A round's span lines are mapped to layers and
   attributed by [Altune_obs.Summary]'s physical self time. *)

module Json = Altune_obs.Json
module Trace = Altune_obs.Trace
module Summary = Altune_obs.Summary
module Metrics = Altune_obs.Metrics
module Problem = Altune_core.Problem
module Surrogate = Altune_core.Surrogate
module Spapt = Altune_spapt.Spapt
module Fork = Altune_spapt.Fork
module Analysis = Altune_kernellang.Analysis
module Transform = Altune_kernellang.Transform
module Machine = Altune_machine.Machine
module Rng = Altune_prng.Rng
open Util

(* --- Wrappers (jobs-1 workloads: tune, paper-model) ------------------- *)

(* What the wrappers saw during one session: the configurations evaluated
   (first-seen order, for the evaluation replay) and call counts. *)
type seen = {
  configs : (int array, unit) Hashtbl.t;
  mutable order : int array list;  (* reversed *)
  mutable measures : int;
  mutable predicts : int;
  mutable candidates : int;
}

let seen () =
  {
    configs = Hashtbl.create 256;
    order = [];
    measures = 0;
    predicts = 0;
    candidates = 0;
  }

let note s c =
  if not (Hashtbl.mem s.configs c) then begin
    let c = Array.copy c in
    Hashtbl.replace s.configs c ();
    s.order <- c :: s.order
  end

let seen_configs s = List.rev s.order

(* [compile_seconds] and [prepare] are where evaluation-cache misses are
   paid; a [measure] call that itself missed the cache is marked so the
   attribution charges it to evaluation too. *)
let wrap_problem s (p : Problem.t) : Problem.t =
  let misses = Metrics.counter "spapt.cache.misses" in
  let marking name f =
    Trace.with_span ~name (fun () ->
        let m0 = Metrics.counter_value misses in
        let v = f () in
        if Metrics.counter_value misses > m0 then
          Trace.add_attrs [ ("miss", Trace.Bool true) ];
        v)
  in
  {
    p with
    measure =
      (fun ~rng ~run_index c ->
        note s c;
        s.measures <- s.measures + 1;
        marking "bench.measure" (fun () -> p.measure ~rng ~run_index c));
    compile_seconds =
      (fun c ->
        note s c;
        Trace.with_span ~name:"bench.compile" (fun () -> p.compile_seconds c));
    prepare =
      (fun cs ->
        List.iter (note s) cs;
        Trace.with_span ~name:"bench.prepare" (fun () -> p.prepare cs));
  }

(* A delegating surrogate: the learner's model calls, timed and counted. *)
let wrap_factory s (factory : Surrogate.factory) : Surrogate.factory =
 fun ~noise_hint ~rng ~dim ->
  let inner = factory ~noise_hint ~rng ~dim in
  let module W = struct
    type t = Surrogate.t

    let name = Surrogate.name inner

    let observe m x y =
      Trace.with_span ~name:"bench.observe" (fun () -> Surrogate.observe m x y)

    let predict m x =
      s.predicts <- s.predicts + 1;
      Trace.with_span ~name:"bench.predict" (fun () -> Surrogate.predict m x)

    let alc_scores m ~candidates ~refs =
      s.candidates <- s.candidates + Array.length candidates;
      Trace.with_span ~name:"bench.alc" (fun () ->
          Surrogate.alc_scores m ~candidates ~refs)

    let n_observations = Surrogate.n_observations
    let tree_stats = Surrogate.tree_stats
    let set_pool = Surrogate.set_pool
  end in
  Surrogate.Pack ((module W), inner)

(* --- Attribution ------------------------------------------------------- *)

let layers =
  [
    "bench";
    "learner";
    "dataset";
    "search";
    "spapt.eval";
    "spapt.measure";
    "dynatree.observe";
    "dynatree.alc";
    "dynatree.predict";
    "runs";
    "pool";
    "serve";
  ]

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The layer a span's time belongs to, or [None] for spans that are
   transparent (their time stays with the enclosing layer).  With
   [~wrapped] the benchmark's own spans mark every layer boundary, so the
   program's spans are dropped; otherwise (table1, serve: problems built
   inside the library) the program's learner, runs and pool spans stand
   in for the missing wrappers. *)
let layer_of ~wrapped j =
  let name = get_string "name" j in
  let attr k =
    match member "attrs" j with Some a -> member k a | None -> None
  in
  match name with
  | "bench.round" | "bench.session" -> Some "bench"
  | "bench.learner" -> Some "learner"
  | "bench.dataset" -> Some "dataset"
  | "bench.search" -> Some "search"
  | "bench.compile" | "bench.prepare" -> Some "spapt.eval"
  | "bench.measure" ->
      Some (if attr "miss" <> None then "spapt.eval" else "spapt.measure")
  | "bench.observe" -> Some "dynatree.observe"
  | "bench.alc" -> Some "dynatree.alc"
  | "bench.predict" -> Some "dynatree.predict"
  | _ when has_prefix "bench.serve." name -> Some "serve"
  | _ when wrapped -> None
  | "learner.run" | "learner.candidates" | "learner.seed-sample"
  | "learner.checkpoint" | "learner.fault" ->
      Some "learner"
  | "learner.observe" | "surrogate.observe" -> Some "dynatree.observe"
  | "learner.select" | "surrogate.alc" -> Some "dynatree.alc"
  | "learner.rmse" -> Some "dynatree.predict"
  | "learner.profile" -> Some "spapt.measure"
  | "learner.prepare" -> Some "spapt.eval"
  | "runs.dataset" -> Some "dataset"
  | "runs.curves" | "driver.table1" -> Some "runs"
  | "pool.task" -> (
      match Option.bind (attr "label") Json.to_string_opt with
      | Some l when has_prefix "spapt.eval" l -> Some "spapt.eval"
      | _ -> Some "pool")
  | _ -> None

(* Self seconds per layer, busy time, domains, and the inclusive time of
   a few named program spans, from one round's trace lines. *)
let attribute ~wrapped lines =
  let inclusive = Hashtbl.create 8 in
  let mapped =
    List.filter_map
      (fun line ->
        match Json.of_string line with
        | Ok j when get_string "ev" j = "span" -> (
            let name = get_string "name" j in
            let dur = get_float "dur" j in
            let s, n =
              Option.value ~default:(0.0, 0) (Hashtbl.find_opt inclusive name)
            in
            Hashtbl.replace inclusive name (s +. dur, n + 1);
            match layer_of ~wrapped j with
            | None -> None
            | Some layer ->
                Some
                  (Json.to_string
                     (Json.Obj
                        [
                          ("ev", Json.String "span");
                          ("id", Json.Int (get_int "id" j));
                          ("phase", Json.String layer);
                          ("domain", Json.Int (get_int "domain" j));
                          ("start", Json.Float (get_float "start" j));
                          ("dur", Json.Float dur);
                        ])))
        | _ -> None)
      lines
  in
  match Summary.of_lines mapped with
  | Error e -> failwith ("trace attribution: " ^ e)
  | Ok sum ->
      let self l =
        match
          List.find_opt (fun (r : Summary.phase_row) -> r.phase = l) sum.rows
        with
        | Some r -> r.self_s
        | None -> 0.0
      in
      let incl name =
        fst (Option.value ~default:(0.0, 0) (Hashtbl.find_opt inclusive name))
      in
      List.map (fun l -> ("self." ^ l, self l)) layers
      @ [
          ("busy_s", sum.busy_s);
          ("span_wall_s", sum.wall_s);
          ("domains", float_of_int sum.domain_count);
          ("incl.runs.dataset", incl "runs.dataset");
          ("incl.runs.curves", incl "runs.curves");
        ]

(* --- Metrics registry deltas ------------------------------------------ *)

let counters =
  [
    "spapt.cache.hits";
    "spapt.cache.misses";
    "spapt.cache.evictions";
    "surrogate.observes";
    "surrogate.resamples";
    "surrogate.alc.scores";
    "pool.tasks";
    "pool.steals";
    "memo.dataset.hits";
    "memo.dataset.misses";
    "memo.dataset.waits";
    "memo.curves.hits";
    "memo.curves.misses";
    "memo.curves.waits";
    "serve.memo.hits";
    "serve.memo.misses";
    "serve.memo.waits";
  ]

let histograms = [ "pool.queue_wait_seconds"; "pool.task_seconds" ]

(* Read from [Metrics.snapshot], which registers nothing: the benchmark
   must not touch an instrument before the program does. *)
let registry () =
  let snap = Altune_obs.Metrics.snapshot () in
  List.map (fun c -> ("ctr." ^ c, float_of_int (get_int c snap))) counters
  @ List.map
      (fun h ->
        ( "hist." ^ h,
          match member h snap with Some o -> get_float "sum" o | None -> 0.0 ))
      histograms

let delta before after =
  List.map2 (fun (k, a) (_, b) -> (k, b -. a)) before after

(* --- Evaluation breakdown replay --------------------------------------- *)

(* Re-price the distinct configurations a session evaluated, step by
   step, on a fresh trie: recipe -> prefix-trie resolve -> dependence
   analysis -> machine-model pricing.  Each replayed price must equal
   the benchmark's own [true_runtime] bit for bit.  The noise layer is
   timed as [Spapt.measure] on warm entries, scaled to the session's
   measure calls. *)
let replay b configs ~measures =
  let trie = Fork.create (Spapt.kernel b) in
  let resolve = ref 0.0 and analyze = ref 0.0 and price = ref 0.0 in
  let mismatches = ref [] in
  List.iter
    (fun c ->
      let k, dt =
        timed (fun () ->
            match Fork.resolve trie (Spapt.recipe b c) with
            | Ok k -> k
            | Error e -> failwith (Transform.error_to_string e))
      in
      resolve := !resolve +. dt;
      let a, dt = timed (fun () -> Analysis.analyze k) in
      analyze := !analyze +. dt;
      let (rt, ct), dt =
        timed (fun () ->
            ( Machine.runtime_seconds Machine.default a,
              Machine.compile_seconds Machine.default k ))
      in
      price := !price +. dt;
      let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      if
        not
          (same rt (Spapt.true_runtime b c) && same ct (Spapt.compile_seconds b c))
      then
        mismatches :=
          Printf.sprintf "replayed price differs for %s [%s]" (Spapt.name b)
            (String.concat "," (List.map string_of_int (Array.to_list c)))
          :: !mismatches)
    configs;
  let warm = List.filteri (fun i _ -> i < 32) configs in
  let rng = Rng.create ~seed:1 in
  let (), noise =
    timed (fun () ->
        List.iter
          (fun c ->
            for run_index = 1 to 35 do
              ignore (Spapt.measure b ~rng ~run_index c)
            done)
          warm)
  in
  let per_call =
    if warm = [] then 0.0 else noise /. float_of_int (35 * List.length warm)
  in
  let fs = Spapt.fork_stats b in
  ( [
      ("replay.resolve_s", !resolve);
      ("replay.analyze_s", !analyze);
      ("replay.price_s", !price);
      ("replay.noise_s", per_call *. float_of_int measures);
      ("replay.configs", float_of_int (List.length configs));
      ("fork.nodes", float_of_int fs.Fork.nodes);
      ("fork.steps_reused", float_of_int fs.Fork.steps_reused);
      ("fork.steps_applied", float_of_int fs.Fork.steps_applied);
    ],
    List.rev !mismatches )
