(* Tests for the transformation-prefix trie (compilation forking).
   The trie's whole contract is that it is invisible: kernels resolved
   through it, and the costs priced from them, must be byte/float-
   identical to Spapt's from-scratch evaluation path.  Spapt's own
   evaluation store is checked here too: warming it through a pool, or
   evicting from a bounded store, never changes a value. *)

module Spapt = Altune_spapt.Spapt
module Fork = Altune_spapt.Fork
module Machine = Altune_machine.Machine
module Rng = Altune_prng.Rng
module Pool = Altune_exec.Pool
module Memo = Altune_exec.Memo
module Metrics = Altune_obs.Metrics

let all_names = Altune_spapt.Kernels.names

(* A sibling pair: one random configuration and a copy with its last
   knob moved — the shape a batched learner iteration produces, and the
   case where the recipes share every step up to the divergence point. *)
let sibling_pair b rng =
  let base = Spapt.random_config b rng in
  let sibling = Array.copy base in
  let last = Array.length sibling - 1 in
  let knobs = Array.of_list (Spapt.knobs b) in
  let card = Spapt.knob_cardinality knobs.(last) in
  sibling.(last) <- (sibling.(last) + 1 + Rng.int rng (max 1 (card - 1))) mod card;
  (base, sibling)

(* The configuration's (runtime, compile seconds) priced from the
   trie-resolved kernel. *)
let priced_via trie b c =
  match Fork.resolve trie (Spapt.recipe b c) with
  | Ok k ->
      let e = Machine.evaluate Machine.default k in
      (e.Machine.runtime, e.Machine.compile)
  | Error e ->
      Alcotest.failf "trie refused a SPAPT recipe: %s"
        (Altune_kernellang.Transform.error_to_string e)

let spapt_pair b c = (Spapt.true_runtime b c, Spapt.compile_seconds b c)

(* Property: over random sibling pairs on random benchmarks, the trie
   resolves exactly the kernel Spapt transforms from scratch. *)
let prop_trie_vs_scratch =
  QCheck.Test.make ~name:"trie resolution = from-scratch application"
    ~count:60
    QCheck.(pair (int_bound 10) small_int)
    (fun (bench_idx, seed) ->
      let name = List.nth all_names bench_idx in
      let b = Spapt.create name in
      let fork = Fork.create (Spapt.kernel b) in
      let rng = Rng.create ~seed in
      let base, sibling = sibling_pair b rng in
      List.for_all
        (fun c ->
          match Fork.resolve fork (Spapt.recipe b c) with
          | Ok k -> k = Spapt.transformed b c
          | Error _ -> false)
        [ base; sibling; base ])

(* Trie versus Spapt on every cost a learner observes: measurements are
   drawn from the priced pair, so equal pairs mean equal measurements. *)
let test_trie_vs_spapt_measurements () =
  List.iter
    (fun name ->
      let b = Spapt.create name in
      let trie = Fork.create (Spapt.kernel b) in
      let rng = Rng.create ~seed:7 in
      for _ = 1 to 25 do
        let base, sibling = sibling_pair b rng in
        List.iter
          (fun c ->
            let rt, ct = priced_via trie b c in
            Alcotest.(check (float 0.0)) "true_runtime" rt (Spapt.true_runtime b c);
            Alcotest.(check (float 0.0))
              "compile_seconds" ct (Spapt.compile_seconds b c))
          [ base; sibling ]
      done;
      let stats = Fork.stats trie in
      Alcotest.(check bool) "trie actually reused prefixes" true
        (stats.Fork.steps_reused > 0);
      Alcotest.(check int) "Spapt itself builds no trie" 0
        (Spapt.fork_stats b).Fork.nodes)
    [ "mm"; "hessian" ]

(* Batched preparation at jobs 1 vs 4: warming the store through the
   pool must leave every evaluation bit-identical to an instance that
   never prepared.  At jobs 4 the read-back is all store hits; at jobs 1
   [prepare] does nothing. *)
let test_prepare_jobs_bit_identity () =
  let name = "mvt" in
  let rng = Rng.create ~seed:11 in
  let reference = Spapt.create name in
  let configs = List.init 40 (fun _ -> Spapt.random_config reference rng) in
  let baseline = List.map (spapt_pair reference) configs in
  let misses = Metrics.counter "spapt.cache.misses" in
  List.iter
    (fun jobs ->
      let b = Spapt.create name in
      let pool = Pool.create ~jobs () in
      let m0 = Metrics.counter_value misses in
      Spapt.prepare ~pool b configs;
      let m1 = Metrics.counter_value misses in
      let got = List.map (spapt_pair b) configs in
      let m2 = Metrics.counter_value misses in
      Pool.shutdown pool;
      if jobs = 1 then
        Alcotest.(check int) "jobs 1: prepare evaluates nothing" 0 (m1 - m0)
      else
        Alcotest.(check int)
          (Printf.sprintf "jobs %d: read-back is all hits" jobs)
          0 (m2 - m1);
      List.iter2
        (fun (rt0, cs0) (rt1, cs1) ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "runtime bit-identical at jobs=%d" jobs)
            rt0 rt1;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "compile bit-identical at jobs=%d" jobs)
            cs0 cs1)
        baseline got)
    [ 1; 4 ]

(* A tiny bounded store of trie-priced evaluations must still produce
   Spapt's values: eviction only ever costs recomputation, never a wrong
   answer. *)
let test_cache_eviction_correct () =
  let b = Spapt.create "lu" in
  let trie = Fork.create (Spapt.kernel b) in
  let tiny : (int array, float * float) Memo.t =
    Memo.create ~capacity:4 ~name:"test.fork.tiny" ()
  in
  let evictions = Metrics.counter "test.fork.tiny.evictions" in
  let e0 = Metrics.counter_value evictions in
  let rng = Rng.create ~seed:13 in
  let configs = List.init 30 (fun _ -> Spapt.random_config b rng) in
  (* Two passes so the second pass re-reads keys the first evicted. *)
  for _ = 1 to 2 do
    List.iter
      (fun c ->
        let rt, ct =
          Memo.find_or_compute tiny c (fun () -> priced_via trie b c)
        in
        let rt', ct' = spapt_pair b c in
        Alcotest.(check (float 0.0)) "evicting store agrees: runtime" rt' rt;
        Alcotest.(check (float 0.0)) "evicting store agrees: compile" ct' ct)
      configs
  done;
  Alcotest.(check bool) "bounded" true (Memo.length tiny <= 4);
  Alcotest.(check bool) "evicted" true (Metrics.counter_value evictions > e0)

let () =
  Alcotest.run "fork"
    [
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_trie_vs_scratch ] );
      ( "inertness",
        [
          Alcotest.test_case "measurements identical trie vs Spapt" `Quick
            test_trie_vs_spapt_measurements;
          Alcotest.test_case "prepare jobs 1 vs 4 bit-identity" `Quick
            test_prepare_jobs_bit_identity;
          Alcotest.test_case "cache eviction only recomputes" `Quick
            test_cache_eviction_correct;
        ] );
    ]
