type stream = {
  array : string;
  coeffs : (string * float) list;
  affine : bool;
  distinct : int;
  mult : int;
}

type loop_node = {
  index : string;
  trips : float;
  step : int;
  streams : stream list;
  flops : float;
  iops : float;
  stmts : float;
  children : loop_node list;
}

type t = {
  roots : loop_node list;
  array_elements : (string * float) list;
  straightline_stmts : float;
}

(* The compiled context of one loop body, built once per loop by
   [build_loop]: the live loop indices by slot (0 is the outermost), each
   one's average value, and for each slot whose lower bound depends on
   enclosing indices (strip-mined point loops:
   [for i = i_t to min(i_t + T - 1, ...)]) the fully-folded affine
   coefficients of that bound over the enclosing slots, so that an access
   subscripted by [i] is correctly seen to sweep with [i_t] as well.  An
   index is resolved to its innermost binding; nested loops bind distinct
   indices ([Ast.validate]).  The last three arrays, one entry per slot,
   are the scratch space every access of the body reuses. *)
type env = {
  params : (string * float) list;
  live : string array;
  mids : float array;  (* average value of each live index *)
  sweeps : (int * float array) array;
      (* the slots whose lower bound sweeps, innermost first, each with
         that bound's coefficient on every enclosing slot *)
  mentioned : bool array;  (* the slots an access's subscripts mention *)
  raw : float array;  (* its per-slot coefficients before [expand] *)
  totals : float array;  (* and after *)
}

exception Non_affine

(* Association lists keyed by parameter and array names, looked up with
   [String.equal] rather than polymorphic equality. *)
let rec assoc_opt name = function
  | [] -> None
  | (k, v) :: rest ->
      if String.equal k name then Some v else assoc_opt name rest

let param env x =
  match assoc_opt x env.params with Some v -> v | None -> raise Non_affine

(* Slot of the live index [x], or -1 if [x] is not a live index. *)
let rec slot_below live x s =
  if s < 0 then -1
  else if String.equal live.(s) x then s
  else slot_below live x (s - 1)

let slot env x = slot_below env.live x (Array.length env.live - 1)

(* Numeric evaluation of an expression, parameters at their values and
   every live index at its average value or, with [~zeroed:true], at zero,
   marking the index in [env.mentioned].  Used for loop bounds and constant
   terms; Min/Max/Idiv are common there (tile edges, unroll remainder
   bounds). *)
let rec eval env ~zeroed (e : Ast.expr) : float =
  match e with
  | Int_lit n -> float_of_int n
  | Float_lit x -> x
  | Var x -> (
      match slot env x with
      | -1 -> param env x
      | s ->
          if zeroed then begin
            env.mentioned.(s) <- true;
            0.0
          end
          else env.mids.(s))
  | Index _ -> raise Non_affine
  | Binop (op, a, b) -> (
      let x = eval env ~zeroed a and y = eval env ~zeroed b in
      match op with
      | Add -> x +. y
      | Sub -> x -. y
      | Mul -> x *. y
      | Div -> x /. y
      | Idiv ->
          (* Truncated division: a divisor in (-1, 1) truncates to zero. *)
          let d = int_of_float y in
          if d = 0 then raise Non_affine
          else Float.of_int (int_of_float x / d)
      | Mod -> if y = 0.0 then raise Non_affine else Float.rem x y
      | Min -> Float.min x y
      | Max -> Float.max x y)
  | Neg a -> -.eval env ~zeroed a
  | Sqrt a -> sqrt (eval env ~zeroed a)

let eval_avg env e = eval env ~zeroed:false e

(* Whether [e] mentions a live index. *)
let rec depends env (e : Ast.expr) =
  match e with
  | Int_lit _ | Float_lit _ -> false
  | Var x -> slot env x >= 0
  | Index (_, subs) -> List.exists (depends env) subs
  | Binop (_, a, b) -> depends env a || depends env b
  | Neg a | Sqrt a -> depends env a

(* Affine coefficient of [var] in an integer expression, with all other
   live indices treated as symbolic (coefficient extraction) and parameters
   as constants.  Raises [Non_affine] on products of two var-dependent
   terms, or Idiv/Mod/Min/Max applied to var-dependent operands.  Whether
   it raises does not depend on [var]. *)
let rec coeff env var (e : Ast.expr) : float =
  match e with
  | Int_lit _ | Float_lit _ -> 0.0
  | Var x -> if String.equal x var then 1.0 else 0.0
  | Index _ -> raise Non_affine
  | Neg a -> -.coeff env var a
  | Sqrt a -> if depends env a then raise Non_affine else 0.0
  | Binop (Add, a, b) -> coeff env var a +. coeff env var b
  | Binop (Sub, a, b) -> coeff env var a -. coeff env var b
  | Binop (Mul, a, b) ->
      if not (depends env a) then eval_avg env a *. coeff env var b
      else if not (depends env b) then coeff env var a *. eval_avg env b
      else raise Non_affine
  | Binop ((Div | Idiv | Mod | Min | Max), a, b) ->
      if depends env a || depends env b then raise Non_affine else 0.0

(* Fold bound-induced dependence into the per-slot coefficients [raw]: a
   coefficient on a strip-mined point index also sweeps with the indices
   its lower bound ranges over.  Slot [v]'s total is [raw.(v)] plus the
   sum, over the sweeping slots [u] innermost first, of [raw.(u)] times
   [u]'s bound coefficient on [v], written to [totals]; [skip_zero] leaves
   out the slots whose coefficient is zero. *)
let expand env ~skip_zero raw totals =
  for v = 0 to Array.length raw - 1 do
    let extra = ref 0.0 in
    for k = 0 to Array.length env.sweeps - 1 do
      let u, row = env.sweeps.(k) in
      if not (skip_zero && raw.(u) = 0.0) then
        extra :=
          !extra +. (raw.(u) *. if v < Array.length row then row.(v) else 0.0)
    done;
    totals.(v) <- raw.(v) +. !extra
  done

let count_ops (e : Ast.expr) =
  (* flops: operators outside subscripts; iops: operators inside them. *)
  let flops = ref 0 and iops = ref 0 in
  let op in_subscript = if in_subscript then incr iops else incr flops in
  let rec go in_subscript (e : Ast.expr) =
    match e with
    | Int_lit _ | Float_lit _ | Var _ -> ()
    | Index (_, subs) -> List.iter (go true) subs
    | Binop (_, a, b) ->
        go in_subscript a;
        go in_subscript b;
        op in_subscript
    | Neg a | Sqrt a ->
        go in_subscript a;
        op in_subscript
  in
  go false e;
  (!flops, !iops)

(* A stream of the loop body under analysis, still taking accesses: its
   key, and the constant offsets of the [count] accesses seen so far in
   [offsets.(0 .. count - 1)]. *)
type pending = {
  key_array : string;
  key_coeffs : (string * float) list;
  key_affine : bool;
  mutable offsets : float array;
  mutable count : int;
}

(* What the statements directly under one loop contribute besides their
   operation counts: the streams of their accesses, in descending key
   order, and the nested loops, in reverse source order. *)
type body = { mutable pending : pending list; mutable loops : Ast.loop list }

(* An access's coefficients are [env.totals] over slots [top] down to 0,
   zeros left out: the list [coeffs_of] builds.  Streams are ordered by
   polymorphic [compare] on [(array, coeffs, affine)], which
   [compare_key] computes without building the list: [String.compare] on
   names, then [Float.compare] on coefficients. *)
let coeffs_of env ~top =
  let coeffs = ref [] in
  for s = 0 to top do
    let c = env.totals.(s) in
    if c <> 0.0 then coeffs := (env.live.(s), c) :: !coeffs
  done;
  !coeffs

let rec compare_coeffs env s coeffs =
  if s < 0 then match coeffs with [] -> 0 | _ :: _ -> -1
  else
    let c = env.totals.(s) in
    if c = 0.0 then compare_coeffs env (s - 1) coeffs
    else
      match coeffs with
      | [] -> 1
      | (y, d) :: rest ->
          let k = String.compare env.live.(s) y in
          if k <> 0 then k
          else
            let k = Float.compare c d in
            if k <> 0 then k else compare_coeffs env (s - 1) rest

let compare_key env array ~top ~affine p =
  let k = String.compare array p.key_array in
  if k <> 0 then k
  else
    let k = compare_coeffs env top p.key_coeffs in
    if k <> 0 then k else Bool.compare affine p.key_affine

(* Count one access into the stream of its key, opening the stream in its
   place if the key is new.  A body has few streams (the translated copies
   of an access share one), so a scan of the sorted list finds it. *)
let push env body array ~top ~affine offset =
  let rec join = function
    | [] -> false
    | p :: rest ->
        let k = compare_key env array ~top ~affine p in
        if k = 0 then begin
          if p.count = Array.length p.offsets then
            p.offsets <-
              Array.append p.offsets (Array.make p.count 0.0);
          p.offsets.(p.count) <- offset;
          p.count <- p.count + 1;
          true
        end
        else k < 0 && join rest
  in
  if not (join body.pending) then begin
    let p =
      {
        key_array = array;
        key_coeffs = coeffs_of env ~top;
        key_affine = affine;
        offsets = Array.make 4 offset;
        count = 1;
      }
    in
    let rec insert = function
      | q :: rest when compare_key env array ~top ~affine q < 0 ->
          q :: insert rest
      | l -> p :: l
    in
    body.pending <- insert body.pending
  end

(* The number of distinct offsets under [Float.compare]: heap-sort them
   in place (a float-array sort that boxes no element), then count the
   runs. *)
let distinct_offsets p =
  let a = p.offsets and n = p.count in
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec sift i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c =
        if l + 1 < n && Float.compare a.(l + 1) a.(l) > 0 then l + 1 else l
      in
      if Float.compare a.(c) a.(i) > 0 then begin
        swap i c;
        sift c n
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for e = n - 1 downto 1 do
    swap 0 e;
    sift 0 e
  done;
  let runs = ref 1 in
  for i = 1 to n - 1 do
    if Float.compare a.(i) a.(i - 1) <> 0 then incr runs
  done;
  !runs

let close p =
  {
    array = p.key_array;
    coeffs = p.key_coeffs;
    affine = p.key_affine;
    distinct = distinct_offsets p;
    mult = p.count;
  }

let row_stride row_strides k =
  if k < Array.length row_strides then row_strides.(k) else 1.0

(* Row-major flattening: the sum over dimensions of a subscript's
   constant term (for [slot] -1, with every live index at zero) or of its
   coefficient on the index of [slot], times the product of the extents of
   later dimensions. *)
let rec flat env ~slot row_strides k acc = function
  | [] -> acc
  | sub :: rest ->
      let term =
        if slot < 0 then eval env ~zeroed:true sub
        else coeff env env.live.(slot) sub
      in
      flat env ~slot row_strides (k + 1)
        (acc +. (term *. row_stride row_strides k))
        rest

(* Count an access into [body].  One walk of the subscripts yields the
   constant term and marks the live indices they mention; only those get
   a coefficient walk.  Any other index's coefficient is exactly +0.0,
   unless a non-finite scalar factor or extent makes it NaN — and then the
   constant term is not finite either, so every index is walked.  A
   non-affine access has no coefficients and offset 0. *)
let add_access ~env ~strides body array subs =
  let row_strides =
    match assoc_opt array strides with Some s -> s | None -> [||]
  in
  let n = Array.length env.live in
  Array.fill env.mentioned 0 n false;
  match
    let offset = flat env ~slot:(-1) row_strides 0 0.0 subs in
    let every = not (Float.is_finite offset) in
    for s = 0 to n - 1 do
      env.raw.(s) <-
        (if every || env.mentioned.(s) then
           flat env ~slot:s row_strides 0 0.0 subs
         else 0.0)
    done;
    offset
  with
  | offset ->
      expand env ~skip_zero:false env.raw env.totals;
      push env body array ~top:(n - 1) ~affine:true offset
  | exception Non_affine -> push env body array ~top:(-1) ~affine:false 0.0

let rec exprs_of_cond (c : Ast.cond) =
  match c with
  | Cmp (_, a, b) -> [ a; b ]
  | And (a, b) | Or (a, b) -> exprs_of_cond a @ exprs_of_cond b
  | Not a -> exprs_of_cond a

(* Direct statistics of statements under [s], stopping at nested loops.
   The accesses found are counted into [body]'s streams and the nested
   loops pushed onto its [loops]; the flop, iop and statement counts are
   returned, summed in the shape of the statement tree. *)
let rec direct_stats ~env ~strides body (s : Ast.stmt) =
  match s with
  | Assign (lhs, rhs) ->
      let rec reads (e : Ast.expr) =
        match e with
        | Int_lit _ | Float_lit _ | Var _ -> ()
        | Index (a, subs) ->
            add_access ~env ~strides body a subs;
            List.iter reads subs
        | Binop (_, a, b) ->
            reads a;
            reads b
        | Neg a | Sqrt a -> reads a
      in
      let wf, wi =
        match lhs with
        | Scalar_lhs _ -> (0, 0)
        | Array_lhs (a, subs) ->
            add_access ~env ~strides body a subs;
            List.fold_left
              (fun (f, i) s ->
                let f', i' = count_ops s in
                (f + f', i + i' + 1))
              (0, 0) subs
      in
      reads rhs;
      let rf, ri = count_ops rhs in
      (float_of_int (rf + wf), float_of_int (ri + wi), 1.0)
  | Seq ss ->
      List.fold_left
        (fun (f, i, n) s ->
          let f', i', n' = direct_stats ~env ~strides body s in
          (f +. f', i +. i', n +. n'))
        (0.0, 0.0, 0.0) ss
  | For l ->
      body.loops <- l :: body.loops;
      (0.0, 0.0, 0.0)
  | If (c, t, e) ->
      (* Count both branches at half weight: a cheap expected-cost model of
         data-dependent branches. *)
      let cond_iops =
        List.fold_left
          (fun acc e ->
            let f, i = count_ops e in
            acc + f + i)
          0 (exprs_of_cond c)
      in
      let ft, it, nt = direct_stats ~env ~strides body t in
      let fe, ie, ne =
        match e with
        | None -> (0.0, 0.0, 0.0)
        | Some e -> direct_stats ~env ~strides body e
      in
      ( ((ft +. fe) /. 2.0) +. float_of_int cond_iops,
        (it +. ie) /. 2.0,
        ((nt +. ne) /. 2.0) +. 1.0 )

let rec build_loop ~env ~strides (l : Ast.loop) : loop_node =
  let lo = try eval_avg env l.lo with Non_affine -> 0.0 in
  let hi = try eval_avg env l.hi with Non_affine -> lo -. 1.0 in
  (* Constant bounds get the exact floored trip count; bounds involving
     enclosing indices are mid-range averages, where keeping the
     fractional part is the better estimator (e.g. triangular loops). *)
  let raw = (hi -. lo) /. float_of_int l.step in
  let trips =
    if depends env l.lo || depends env l.hi then Float.max 0.0 (raw +. 1.0)
    else Float.max 0.0 (Float.floor raw +. 1.0)
  in
  let mid = (lo +. hi) /. 2.0 in
  (* Fully-folded expansion of this loop's lower bound over enclosing
     indices. *)
  let lo_expansion =
    let raw =
      Array.map
        (fun v ->
          match coeff env v l.lo with
          | c when c <> 0.0 -> c
          | _ -> 0.0
          | exception Non_affine -> 0.0)
        env.live
    in
    let totals = Array.make (Array.length raw) 0.0 in
    expand env ~skip_zero:true raw totals;
    if Array.exists (fun c -> c <> 0.0) totals then Some totals else None
  in
  let depth = Array.length env.live in
  let env' =
    {
      env with
      live = Array.append env.live [| l.index |];
      mids = Array.append env.mids [| mid |];
      sweeps =
        (match lo_expansion with
        | None -> env.sweeps
        | Some row -> Array.append [| (depth, row) |] env.sweeps);
      mentioned = Array.make (depth + 1) false;
      raw = Array.make (depth + 1) 0.0;
      totals = Array.make (depth + 1) 0.0;
    }
  in
  let body = { pending = []; loops = [] } in
  let flops, iops, stmts = direct_stats ~env:env' ~strides body l.body in
  let children = List.rev_map (build_loop ~env:env' ~strides) body.loops in
  { index = l.index; trips; step = l.step;
    streams = List.map close body.pending; flops; iops; stmts; children }

let analyze ?(param_overrides = []) (kernel : Ast.kernel) =
  let params =
    List.map
      (fun (name, v) ->
        match assoc_opt name param_overrides with
        | Some v' -> (name, float_of_int v')
        | None -> (name, float_of_int v))
      kernel.params
  in
  let env =
    {
      params;
      live = [||];
      mids = [||];
      sweeps = [||];
      mentioned = [||];
      raw = [||];
      totals = [||];
    }
  in
  let dims =
    List.map
      (fun (d : Ast.array_decl) ->
        let extents =
          Array.of_list
            (List.map
               (fun e -> try eval_avg env e with Non_affine -> 1.0)
               d.dims)
        in
        (d.array_name, extents))
      kernel.arrays
  in
  let array_elements =
    List.map
      (fun (name, extents) -> (name, Array.fold_left ( *. ) 1.0 extents))
      dims
  in
  (* Row-major strides of each declared array: dimension [k] moves by the
     product of the later extents.  A subscript past the declared rank
     (or of an undeclared array) has stride 1. *)
  let strides =
    List.map
      (fun (name, extents) ->
        ( name,
          Array.mapi
            (fun k _ ->
              let s = ref 1.0 in
              for j = k + 1 to Array.length extents - 1 do
                s := !s *. extents.(j)
              done;
              !s)
            extents ))
      dims
  in
  let body = { pending = []; loops = [] } in
  let _, _, straightline = direct_stats ~env ~strides body kernel.body in
  let roots = List.rev_map (build_loop ~env ~strides) body.loops in
  { roots; array_elements; straightline_stmts = straightline }

let rec fold_loops f acc ~entered node =
  let acc = f acc ~entered node in
  let inner_entered = entered *. node.trips in
  List.fold_left
    (fun acc child -> fold_loops f acc ~entered:inner_entered child)
    acc node.children

let fold t f init =
  List.fold_left (fun acc root -> fold_loops f acc ~entered:1.0 root) init
    t.roots

let total_iterations t =
  fold t (fun acc ~entered node -> acc +. (entered *. node.trips)) 0.0

let total_flops t =
  fold t (fun acc ~entered node -> acc +. (entered *. node.trips *. node.flops))
    0.0

let total_memory_accesses t =
  fold t
    (fun acc ~entered node ->
      let accesses =
        List.fold_left (fun n (st : stream) -> n + st.mult) 0 node.streams
      in
      acc +. (entered *. node.trips *. float_of_int accesses))
    0.0

let rec innermost_code_size node =
  (* Instruction estimate: each assignment ~2 insts + its op counts; each
     nested loop contributes its body size once (code, not iterations). *)
  let own = (2.0 *. node.stmts) +. node.flops +. node.iops in
  List.fold_left
    (fun acc child -> acc +. innermost_code_size child +. 2.0)
    own node.children
