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

(* The coefficient of [index] in a stream's list, 0 when absent. *)
let rec coeff_of index = function
  | [] -> 0.0
  | (v, c) :: rest -> if String.equal v index then c else coeff_of index rest

let rec has_coeff index = function
  | [] -> false
  | (v, _) :: rest -> String.equal v index || has_coeff index rest

(* The pricing walk's frames, indexed by depth (0 is a root): the loop at
   that depth on the path being priced, the times it is entered (the
   product of its enclosing loops' trip counts, each at least 1) and the
   working set of one full execution of it.  [sums] holds
   [subtree_ws]'s partial sums by depth, [cost] the five breakdown
   components [cost_of_node] sums over a subtree, five per depth, and
   [out] the result [footprint] or [fetches_beyond] hands back.  One set
   per [estimate] call, sized to its deepest nest. *)
type frames = {
  nodes : Analysis.loop_node array;
  entries : float array;
  ws : float array;
  sums : float array;
  cost : float array;
  out : float array;
}

(* Distinct bytes a stream touches across one full execution of the loop
   window [f.nodes.(lo .. hi)] (outermost first), into [f.out.(0)].
   Bounded both by the iteration-space product and by the address span of
   the affine stream; the [distinct] translated copies of an unrolled
   stream fill in the gaps the enlarged loop step leaves. *)
let footprint cfg f ~lo ~hi (st : Analysis.stream) =
  if not st.affine then begin
    (* Unknown pattern: worst case, one line per iteration of the window. *)
    let acc = ref cfg.l1.line_bytes in
    for j = lo to hi do
      acc := !acc *. Float.max 1.0 f.nodes.(j).Analysis.trips
    done;
    f.out.(0) <- !acc
  end
  else begin
    let product = ref 1.0 in
    let span = ref 0.0 in
    let min_stride = ref infinity in
    for j = lo to hi do
      let l = f.nodes.(j) in
      let c = coeff_of l.index st.coeffs in
      if c <> 0.0 then begin
        let stride = Float.abs c *. float_of_int l.step in
        product := !product *. Float.max 1.0 l.trips;
        span := !span +. (stride *. Float.max 0.0 (l.trips -. 1.0));
        min_stride := Float.min !min_stride stride
      end
    done;
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
    f.out.(0) <- Float.max cfg.l1.line_bytes (elements *. bytes_per_element)
  end

(* Working set of one full execution of [f.nodes.(depth)], into
   [f.sums.(depth)]: sum of the footprints of every access in its
   subtree, each taken over the loops from [top] down to the access.
   Overlap between accesses to the same array is ignored
   (conservative). *)
let rec subtree_ws cfg f ~top depth =
  let node = f.nodes.(depth) in
  f.sums.(depth) <- 0.0;
  streams_ws cfg f ~top depth node.streams;
  children_ws cfg f ~top depth node.children

and streams_ws cfg f ~top depth = function
  | [] -> ()
  | st :: rest ->
      footprint cfg f ~lo:top ~hi:depth st;
      f.sums.(depth) <- f.sums.(depth) +. f.out.(0);
      streams_ws cfg f ~top depth rest

and children_ws cfg f ~top depth = function
  | [] -> ()
  | child :: rest ->
      f.nodes.(depth + 1) <- child;
      subtree_ws cfg f ~top (depth + 1);
      f.sums.(depth) <- f.sums.(depth) +. f.sums.(depth + 1);
      children_ws cfg f ~top depth rest

(* Outermost depth in [j, depth] whose working set fits in [level], or
   -1. *)
let rec outermost_fit f level ~depth j =
  if j > depth then -1
  else if f.ws.(j) <= level.size_bytes then j
  else outermost_fit f level ~depth (j + 1)

(* Reuse-scope analysis: for a cache level C, find the outermost enclosing
   loop whose full-execution working set fits in C; everything fetched
   during one execution of that loop stays resident, so the number of
   fetches that miss C is (executions of that loop) x (distinct lines the
   access touches during one such execution), handed back in
   [f.out.(0)].  False when not even one innermost-loop execution
   fits. *)
let fetches_beyond cfg f ~depth st level =
  match outermost_fit f level ~depth 0 with
  | -1 -> false
  | j ->
      footprint cfg f ~lo:j ~hi:depth st;
      f.out.(0) <- f.entries.(j) *. (f.out.(0) /. cfg.l1.line_bytes);
      true

(* Memory cost of one access of the loop at [depth], executed with it,
   added to that depth's memory component; the path of enclosing loops is
   [f.nodes.(0 .. depth)]. *)
let access_cost cfg f ~depth (st : Analysis.stream) =
  let total_executions =
    f.entries.(depth) *. Float.max 1.0 f.nodes.(depth).Analysis.trips
  in
  let total_accesses = total_executions *. float_of_int st.mult in
  let cost =
    if not st.affine then
      (* Gather: every execution reaches L2, half reach memory. *)
      total_accesses
      *. (cfg.l2.latency_cycles +. (0.5 *. cfg.memory_latency))
    else begin
      (* Not even one innermost-loop execution fits: miss on every
         access. *)
      let beyond_l1 =
        if fetches_beyond cfg f ~depth st cfg.l1 then f.out.(0)
        else total_accesses
      in
      let l1_misses = Float.min beyond_l1 total_accesses in
      let beyond_l2 =
        if fetches_beyond cfg f ~depth st cfg.l2 then f.out.(0)
        else total_accesses
      in
      let l2_misses = Float.min beyond_l2 l1_misses in
      (total_accesses *. cfg.l1.latency_cycles)
      +. (l1_misses *. (cfg.l2.latency_cycles -. cfg.l1.latency_cycles))
      +. (l2_misses *. cfg.memory_latency)
    end
  in
  let m = (5 * depth) + 1 in
  f.cost.(m) <- f.cost.(m) +. cost

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
        if st.affine && not (has_coeff node.index st.coeffs) then
          n + st.distinct
        else n)
      0 node.streams
  in
  invariant + int_of_float node.stmts + 4

(* The cost of the subtree of [node], at [depth] on the path, into
   [f.cost.(5 * depth ..)]: compute, memory, overhead, spill and i-cache
   cycles, its own then each child's added in order. *)
let rec cost_of_node cfg f depth (node : Analysis.loop_node) =
  f.nodes.(depth) <- node;
  let entries =
    if depth = 0 then 1.0
    else f.entries.(depth - 1) *. Float.max 1.0 f.nodes.(depth - 1).trips
  in
  f.entries.(depth) <- entries;
  (* Each ancestor's working set is computed once, at its own level, so
     suffix lookups do not recompute subtree footprints. *)
  subtree_ws cfg f ~top:depth depth;
  f.ws.(depth) <- f.sums.(depth);
  let iterations = entries *. Float.max 0.0 node.trips in
  let b = 5 * depth in
  f.cost.(b + 1) <- 0.0;
  streams_cost cfg f ~depth node.streams;
  let insts = (2.0 *. node.stmts) +. node.flops +. node.iops in
  let compute_per_iter =
    Float.max
      ((node.flops *. cfg.flop_cycles) +. (node.iops *. cfg.iop_cycles))
      (insts /. cfg.issue_width)
  in
  f.cost.(b) <- iterations *. compute_per_iter;
  f.cost.(b + 2) <-
    (entries *. cfg.loop_setup_cycles)
    +. (iterations *. cfg.loop_overhead_cycles);
  f.cost.(b + 3) <-
    (if node.children = [] then begin
       let pressure = register_pressure node in
       let excess = float_of_int (max 0 (pressure - cfg.num_fp_registers)) in
       iterations *. excess *. cfg.spill_cycles
     end
     else 0.0);
  f.cost.(b + 4) <-
    (if node.children = [] then begin
       let code_bytes =
         Analysis.innermost_code_size node *. cfg.bytes_per_instruction
       in
       let overflow =
         Float.max 0.0 ((code_bytes /. cfg.icache_bytes) -. 1.0)
       in
       iterations *. overflow *. cfg.icache_penalty
     end
     else 0.0);
  children_cost cfg f depth node.children

and streams_cost cfg f ~depth = function
  | [] -> ()
  | st :: rest ->
      access_cost cfg f ~depth st;
      streams_cost cfg f ~depth rest

and children_cost cfg f depth = function
  | [] -> ()
  | child :: rest ->
      cost_of_node cfg f (depth + 1) child;
      let b = 5 * depth and c = 5 * (depth + 1) in
      for i = 0 to 4 do
        f.cost.(b + i) <- f.cost.(b + i) +. f.cost.(c + i)
      done;
      children_cost cfg f depth rest

let rec height (node : Analysis.loop_node) =
  1 + List.fold_left (fun h child -> max h (height child)) 0 node.children

let estimate cfg (a : Analysis.t) =
  let h = List.fold_left (fun h root -> max h (height root)) 0 a.roots in
  let f =
    {
      nodes = (match a.roots with [] -> [||] | r :: _ -> Array.make h r);
      entries = Array.make h 0.0;
      ws = Array.make h 0.0;
      sums = Array.make h 0.0;
      cost = Array.make (5 * h) 0.0;
      out = Array.make 1 0.0;
    }
  in
  let sum = Array.make 5 0.0 in
  List.iter
    (fun root ->
      cost_of_node cfg f 0 root;
      for i = 0 to 4 do
        sum.(i) <- sum.(i) +. f.cost.(i)
      done)
    a.roots;
  let straightline = a.straightline_stmts *. 2.0 /. cfg.issue_width in
  let total =
    sum.(0) +. sum.(1) +. sum.(2) +. sum.(3) +. sum.(4) +. straightline
  in
  {
    compute_cycles = sum.(0) +. straightline;
    memory_cycles = sum.(1);
    overhead_cycles = sum.(2);
    spill_penalty_cycles = sum.(3);
    icache_penalty_cycles = sum.(4);
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
