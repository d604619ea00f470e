module Analysis = Altune_kernellang.Analysis
module Ast = Altune_kernellang.Ast

type cache_level = {
  size_bytes : float;
  line_bytes : float;
  latency_cycles : float;
}

type config = {
  l1 : cache_level;
  l2 : cache_level;
  memory_latency : float;
  frequency_ghz : float;
  issue_width : float;
  num_fp_registers : int;
  icache_bytes : float;
  icache_penalty : float;
  flop_cycles : float;
  iop_cycles : float;
  loop_overhead_cycles : float;
  loop_setup_cycles : float;
  spill_cycles : float;
  element_bytes : float;
  bytes_per_instruction : float;
}

let default =
  {
    l1 = { size_bytes = 32_768.0; line_bytes = 64.0; latency_cycles = 4.0 };
    l2 = { size_bytes = 262_144.0; line_bytes = 64.0; latency_cycles = 12.0 };
    memory_latency = 180.0;
    frequency_ghz = 3.4;
    issue_width = 4.0;
    num_fp_registers = 16;
    (* Sized like the decoded-uop cache rather than the 32 KB L1I: that is
       the structure unrolled loop bodies actually overflow first. *)
    icache_bytes = 6144.0;
    icache_penalty = 6.0;
    flop_cycles = 0.5;
    iop_cycles = 0.05;
    loop_overhead_cycles = 2.0;
    loop_setup_cycles = 6.0;
    spill_cycles = 6.0;
    element_bytes = 8.0;
    bytes_per_instruction = 4.0;
  }

type breakdown = {
  compute_cycles : float;
  memory_cycles : float;
  overhead_cycles : float;
  spill_penalty_cycles : float;
  icache_penalty_cycles : float;
  total_cycles : float;
  seconds : float;
}

let rec coeff_of index = function
  | [] -> None
  | (v, c) :: rest ->
      if String.equal v index then Some c else coeff_of index rest

(* Distinct bytes a stream touches across one full execution of the loop
   window [chain] (outermost first).  Bounded both by the iteration-space
   product and by the address span of the affine stream; the [distinct]
   translated copies of an unrolled stream fill in the gaps the enlarged
   loop step leaves. *)
let footprint cfg (chain : Analysis.loop_node list) (st : Analysis.stream) =
  if not st.affine then
    (* Unknown pattern: worst case, one line per iteration of the window. *)
    List.fold_left (fun acc (l : Analysis.loop_node) -> acc *. Float.max 1.0 l.trips)
      cfg.l1.line_bytes chain
  else begin
    let product = ref 1.0 in
    let span = ref 0.0 in
    let min_stride = ref infinity in
    List.iter
      (fun (l : Analysis.loop_node) ->
        match coeff_of l.index st.coeffs with
        | Some c when c <> 0.0 ->
            let stride = Float.abs c *. float_of_int l.step in
            product := !product *. Float.max 1.0 l.trips;
            span := !span +. (stride *. Float.max 0.0 (l.trips -. 1.0));
            min_stride := Float.min !min_stride stride
        | Some _ | None -> ())
      chain;
    let distinct = float_of_int st.distinct in
    let elements = Float.min (!product *. distinct) (!span +. distinct) in
    (* Cache-line granularity: elements reached with a stride of a full
       line or more each occupy their own line; dense strides pack.  The
       distinct copies of a merged stream divide the effective stride. *)
    let bytes_per_element =
      if !min_stride = infinity then cfg.element_bytes
      else
        Float.min cfg.l1.line_bytes
          (Float.max cfg.element_bytes
             (!min_stride /. distinct *. cfg.element_bytes))
    in
    Float.max cfg.l1.line_bytes (elements *. bytes_per_element)
  end

(* Working set of one full execution of [node]: sum of the footprints of
   every access in its subtree, each taken over the loops between [node]
   and the access.  Overlap between accesses to the same array is ignored
   (conservative). *)
let working_set cfg (node : Analysis.loop_node) =
  let rec go chain (node : Analysis.loop_node) =
    let own =
      List.fold_left
        (fun acc st -> acc +. footprint cfg chain st)
        0.0 node.streams
    in
    List.fold_left
      (fun acc child -> acc +. go (chain @ [ child ]) child)
      own node.children
  in
  go [ node ] node

(* Memory cost of one access executed [executions] times total, where
   [path] is the chain of enclosing loops outermost-first (last element is
   the loop whose body contains the access).

   Reuse-scope analysis: for a cache level C, find the outermost enclosing
   loop whose full-execution working set fits in C; everything fetched
   during one execution of that loop stays resident, so the number of
   fetches that miss C is (executions of that loop) x (distinct lines the
   access touches during one such execution). *)
let access_cost cfg ~path ~ws_of_suffix (st : Analysis.stream) =
  let n = List.length path in
  (* entries.(j) = number of times loop path[j] is entered; trips
     products of enclosing loops. *)
  let trips = Array.of_list (List.map (fun (l : Analysis.loop_node) -> Float.max 1.0 l.trips) path) in
  let entries = Array.make n 1.0 in
  for j = 1 to n - 1 do
    entries.(j) <- entries.(j - 1) *. trips.(j - 1)
  done;
  let total_executions = entries.(n - 1) *. trips.(n - 1) in
  let total_accesses = total_executions *. float_of_int st.mult in
  let lines_touched j =
    (* Distinct lines touched during one full execution of path[j..]. *)
    let window = List.filteri (fun i _ -> i >= j) path in
    footprint cfg window st /. cfg.l1.line_bytes
  in
  let fetches_beyond level_size =
    (* Outermost j such that the working set of path[j..] fits. *)
    let rec find j =
      if j >= n then None
      else if ws_of_suffix j <= level_size then Some j
      else find (j + 1)
    in
    match find 0 with
    | Some j -> entries.(j) *. lines_touched j
    | None ->
        (* Not even one innermost-loop execution fits: miss on every
           access. *)
        total_accesses
  in
  if not st.affine then
    (* Gather: every execution reaches L2, half reach memory. *)
    total_accesses
    *. (cfg.l2.latency_cycles +. (0.5 *. cfg.memory_latency))
  else begin
    let l1_misses = Float.min (fetches_beyond cfg.l1.size_bytes) total_accesses in
    let l2_misses = Float.min (fetches_beyond cfg.l2.size_bytes) l1_misses in
    (total_accesses *. cfg.l1.latency_cycles)
    +. (l1_misses *. (cfg.l2.latency_cycles -. cfg.l1.latency_cycles))
    +. (l2_misses *. cfg.memory_latency)
  end

let zero =
  {
    compute_cycles = 0.0;
    memory_cycles = 0.0;
    overhead_cycles = 0.0;
    spill_penalty_cycles = 0.0;
    icache_penalty_cycles = 0.0;
    total_cycles = 0.0;
    seconds = 0.0;
  }

let add_breakdown a b =
  {
    compute_cycles = a.compute_cycles +. b.compute_cycles;
    memory_cycles = a.memory_cycles +. b.memory_cycles;
    overhead_cycles = a.overhead_cycles +. b.overhead_cycles;
    spill_penalty_cycles = a.spill_penalty_cycles +. b.spill_penalty_cycles;
    icache_penalty_cycles = a.icache_penalty_cycles +. b.icache_penalty_cycles;
    total_cycles = 0.0;
    seconds = 0.0;
  }

(* Live float values in an innermost iteration: loop-invariant array
   elements are register-promoted, each statement needs a destination, and
   a few scratch temporaries.  Identical invariant references (e.g. the
   read and write of an accumulator) share one register: an affine stream
   with no coefficient on the loop's index needs one per distinct
   offset. *)
let register_pressure (node : Analysis.loop_node) =
  let invariant =
    List.fold_left
      (fun n (st : Analysis.stream) ->
        if st.affine && Option.is_none (coeff_of node.index st.coeffs) then
          n + st.distinct
        else n)
      0 node.streams
  in
  invariant + int_of_float node.stmts + 4

let rec cost_of_node cfg ~path ~path_ws (node : Analysis.loop_node) =
  (* [path_ws] carries the working set of each ancestor (computed once at
     that level) so suffix lookups do not recompute subtree footprints. *)
  let path = path @ [ node ] in
  let path_ws = path_ws @ [ working_set cfg node ] in
  let n = List.length path in
  let entries =
    List.fold_left
      (fun acc (l : Analysis.loop_node) -> acc *. Float.max 1.0 l.trips)
      1.0
      (List.filteri (fun i _ -> i < n - 1) path)
  in
  let iterations = entries *. Float.max 0.0 node.trips in
  let ws_arr = Array.of_list path_ws in
  let ws_of_suffix j = if j >= Array.length ws_arr then 0.0 else ws_arr.(j) in
  let mem =
    List.fold_left
      (fun acc st -> acc +. access_cost cfg ~path ~ws_of_suffix st)
      0.0 node.streams
  in
  let insts = (2.0 *. node.stmts) +. node.flops +. node.iops in
  let compute_per_iter =
    Float.max
      ((node.flops *. cfg.flop_cycles) +. (node.iops *. cfg.iop_cycles))
      (insts /. cfg.issue_width)
  in
  let compute = iterations *. compute_per_iter in
  let overhead =
    (entries *. cfg.loop_setup_cycles)
    +. (iterations *. cfg.loop_overhead_cycles)
  in
  let spill =
    if node.children = [] then begin
      let pressure = register_pressure node in
      let excess = float_of_int (max 0 (pressure - cfg.num_fp_registers)) in
      iterations *. excess *. cfg.spill_cycles
    end
    else 0.0
  in
  let icache =
    if node.children = [] then begin
      let code_bytes =
        Analysis.innermost_code_size node *. cfg.bytes_per_instruction
      in
      let overflow = Float.max 0.0 ((code_bytes /. cfg.icache_bytes) -. 1.0) in
      iterations *. overflow *. cfg.icache_penalty
    end
    else 0.0
  in
  let own =
    {
      zero with
      compute_cycles = compute;
      memory_cycles = mem;
      overhead_cycles = overhead;
      spill_penalty_cycles = spill;
      icache_penalty_cycles = icache;
    }
  in
  List.fold_left
    (fun acc child -> add_breakdown acc (cost_of_node cfg ~path ~path_ws child))
    own node.children

let estimate cfg (a : Analysis.t) =
  let b =
    List.fold_left
      (fun acc root ->
        add_breakdown acc
          (cost_of_node cfg ~path:[] ~path_ws:[] root))
      zero a.roots
  in
  let straightline = a.straightline_stmts *. 2.0 /. cfg.issue_width in
  let total =
    b.compute_cycles +. b.memory_cycles +. b.overhead_cycles
    +. b.spill_penalty_cycles +. b.icache_penalty_cycles +. straightline
  in
  {
    b with
    compute_cycles = b.compute_cycles +. straightline;
    total_cycles = total;
    seconds = total /. (cfg.frequency_ghz *. 1e9);
  }

let runtime_seconds cfg a = (estimate cfg a).seconds

let rec expr_size (e : Ast.expr) =
  match e with
  | Int_lit _ | Float_lit _ | Var _ -> 1
  | Index (_, subs) -> 1 + List.fold_left (fun n s -> n + expr_size s) 0 subs
  | Binop (_, a, b) -> 1 + expr_size a + expr_size b
  | Neg a | Sqrt a -> 1 + expr_size a

let rec cond_size (c : Ast.cond) =
  match c with
  | Cmp (_, a, b) -> 1 + expr_size a + expr_size b
  | And (a, b) | Or (a, b) -> 1 + cond_size a + cond_size b
  | Not a -> 1 + cond_size a

let rec stmt_size (s : Ast.stmt) =
  match s with
  | Assign (Scalar_lhs _, e) -> 2 + expr_size e
  | Assign (Array_lhs (_, subs), e) ->
      2 + expr_size e + List.fold_left (fun n s -> n + expr_size s) 0 subs
  | Seq ss -> List.fold_left (fun n s -> n + stmt_size s) 0 ss
  | For l -> 2 + expr_size l.lo + expr_size l.hi + stmt_size l.body
  | If (c, t, e) -> (
      1 + cond_size c + stmt_size t
      + match e with None -> 0 | Some e -> stmt_size e)

let ast_size (k : Ast.kernel) = stmt_size k.body

(* ~60 ms invocation overhead plus per-node cost, roughly gcc -O2 on small
   kernels. *)
let compile_seconds _cfg (k : Ast.kernel) =
  0.06 +. (2e-5 *. float_of_int (ast_size k))

type evaluation = { runtime : float; compile : float }

let evaluate cfg (k : Ast.kernel) =
  {
    runtime = runtime_seconds cfg (Analysis.analyze k);
    compile = compile_seconds cfg k;
  }
