type access = {
  array : string;
  is_write : bool;
  coeffs : (string * float) list;
  offset : float;
  affine : bool;
}

type loop_node = {
  index : string;
  trips : float;
  step : int;
  accesses : access list;
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
   indices ([Ast.validate]). *)
type env = {
  params : (string * float) list;
  live : string array;
  mids : float array;  (* average value of each live index *)
  sweeps : (int * float array) array;
      (* the slots whose lower bound sweeps, innermost first, each with
         that bound's coefficient on every enclosing slot *)
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
let slot env x =
  let rec go s =
    if s < 0 then -1 else if String.equal env.live.(s) x then s else go (s - 1)
  in
  go (Array.length env.live - 1)

(* Numeric evaluation of an expression, variables valued by [var].  Used
   for loop bounds and constant terms; Min/Max/Idiv are common there (tile
   edges, unroll remainder bounds). *)
let rec eval var (e : Ast.expr) : float =
  match e with
  | Int_lit n -> float_of_int n
  | Float_lit x -> x
  | Var x -> var x
  | Index _ -> raise Non_affine
  | Binop (op, a, b) -> (
      let x = eval var a and y = eval var b in
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
  | Neg a -> -.eval var a
  | Sqrt a -> sqrt (eval var a)

(* Evaluation with every live index at its average value. *)
let eval_avg env e =
  eval (fun x -> match slot env x with -1 -> param env x | s -> env.mids.(s)) e

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
   [u]'s bound coefficient on [v]; [skip_zero] leaves out the slots whose
   coefficient is zero. *)
let expand env ~skip_zero raw =
  let totals = Array.make (Array.length raw) 0.0 in
  for v = 0 to Array.length raw - 1 do
    let extra = ref 0.0 in
    for k = 0 to Array.length env.sweeps - 1 do
      let u, row = env.sweeps.(k) in
      if not (skip_zero && raw.(u) = 0.0) then
        extra :=
          !extra +. (raw.(u) *. if v < Array.length row then row.(v) else 0.0)
    done;
    totals.(v) <- raw.(v) +. !extra
  done;
  totals

let count_ops (e : Ast.expr) =
  (* flops: operators outside subscripts; iops: operators inside them. *)
  let rec go in_subscript e =
    match e with
    | Ast.Int_lit _ | Float_lit _ | Var _ -> (0, 0)
    | Index (_, subs) ->
        List.fold_left
          (fun (f, i) s ->
            let f', i' = go true s in
            (f + f', i + i'))
          (0, 0) subs
    | Binop (_, a, b) ->
        let fa, ia = go in_subscript a in
        let fb, ib = go in_subscript b in
        if in_subscript then (fa + fb, ia + ib + 1) else (fa + fb + 1, ia + ib)
    | Neg a | Sqrt a ->
        let f, i = go in_subscript a in
        if in_subscript then (f, i + 1) else (f + 1, i)
  in
  go false e

(* Row-major flat-offset coefficient: sum over dimensions of the subscript
   coefficient times the product of the extents of later dimensions.  One
   walk of the subscripts yields the constant term and marks the live
   indices they mention; only those get a coefficient walk.  Any other
   index's coefficient is exactly +0.0, unless a non-finite scalar factor
   or extent makes it NaN — and then the constant term is not finite
   either, so every index is walked. *)
let access_of ~env ~strides ~is_write array subs =
  let row_strides =
    match assoc_opt array strides with Some s -> s | None -> [||]
  in
  let flat f =
    let rec go acc k = function
      | [] -> acc
      | sub :: rest ->
          let stride =
            if k < Array.length row_strides then row_strides.(k) else 1.0
          in
          go (acc +. (f sub *. stride)) (k + 1) rest
    in
    go 0.0 0 subs
  in
  let n = Array.length env.live in
  let mentioned = Array.make n false in
  let zeroed x =
    match slot env x with
    | -1 -> param env x
    | s ->
        mentioned.(s) <- true;
        0.0
  in
  match
    let offset = flat (eval zeroed) in
    let every = not (Float.is_finite offset) in
    let raw = Array.make n 0.0 in
    for s = 0 to n - 1 do
      if every || mentioned.(s) then raw.(s) <- flat (coeff env env.live.(s))
    done;
    (expand env ~skip_zero:false raw, offset)
  with
  | totals, offset ->
      let coeffs = ref [] in
      for s = 0 to n - 1 do
        let c = totals.(s) in
        if c <> 0.0 then coeffs := (env.live.(s), c) :: !coeffs
      done;
      { array; is_write; coeffs = !coeffs; offset; affine = true }
  | exception Non_affine ->
      { array; is_write; coeffs = []; offset = 0.0; affine = false }

let rec exprs_of_cond (c : Ast.cond) =
  match c with
  | Cmp (_, a, b) -> [ a; b ]
  | And (a, b) | Or (a, b) -> exprs_of_cond a @ exprs_of_cond b
  | Not a -> exprs_of_cond a

(* Direct statistics of statements under [s], stopping at nested loops.
   The accesses and nested loops found are pushed onto the pair [found],
   which holds them in reverse source order; the flop, iop and statement
   counts are returned, summed in the shape of the statement tree. *)
let rec direct_stats ~env ~strides found (s : Ast.stmt) =
  match s with
  | Assign (lhs, rhs) ->
      let rec push_reads acc e =
        match e with
        | Ast.Int_lit _ | Float_lit _ | Var _ -> acc
        | Index (a, subs) ->
            List.fold_left push_reads
              (access_of ~env ~strides ~is_write:false a subs :: acc)
              subs
        | Binop (_, a, b) -> push_reads (push_reads acc a) b
        | Neg a | Sqrt a -> push_reads acc a
      in
      let accesses, loops = found in
      let accesses, wf, wi =
        match lhs with
        | Scalar_lhs _ -> (accesses, 0, 0)
        | Array_lhs (a, subs) ->
            let f, i =
              List.fold_left
                (fun (f, i) s ->
                  let f', i' = count_ops s in
                  (f + f', i + i' + 1))
                (0, 0) subs
            in
            (access_of ~env ~strides ~is_write:true a subs :: accesses, f, i)
      in
      let rf, ri = count_ops rhs in
      ( (push_reads accesses rhs, loops),
        float_of_int (rf + wf),
        float_of_int (ri + wi),
        1.0 )
  | Seq ss ->
      List.fold_left
        (fun (found, f, i, n) s ->
          let found, f', i', n' = direct_stats ~env ~strides found s in
          (found, f +. f', i +. i', n +. n'))
        (found, 0.0, 0.0, 0.0) ss
  | For l ->
      let accesses, loops = found in
      ((accesses, l :: loops), 0.0, 0.0, 0.0)
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
      let found, ft, it, nt = direct_stats ~env ~strides found t in
      let found, fe, ie, ne =
        match e with
        | None -> (found, 0.0, 0.0, 0.0)
        | Some e -> direct_stats ~env ~strides found e
      in
      ( found,
        ((ft +. fe) /. 2.0) +. float_of_int cond_iops,
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
    let totals = expand env ~skip_zero:true raw in
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
    }
  in
  let (accesses, loops), flops, iops, stmts =
    direct_stats ~env:env' ~strides ([], []) l.body
  in
  let children = List.rev_map (build_loop ~env:env' ~strides) loops in
  { index = l.index; trips; step = l.step; accesses = List.rev accesses;
    flops; iops; stmts; children }

let analyze ?(param_overrides = []) (kernel : Ast.kernel) =
  let params =
    List.map
      (fun (name, v) ->
        match assoc_opt name param_overrides with
        | Some v' -> (name, float_of_int v')
        | None -> (name, float_of_int v))
      kernel.params
  in
  let env = { params; live = [||]; mids = [||]; sweeps = [||] } in
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
  let (_, loops), _, _, straightline =
    direct_stats ~env ~strides ([], []) kernel.body
  in
  let roots = List.rev_map (build_loop ~env ~strides) loops in
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
      acc
      +. entered *. node.trips
         *. float_of_int (List.length node.accesses))
    0.0

let rec innermost_code_size node =
  (* Instruction estimate: each assignment ~2 insts + its op counts; each
     nested loop contributes its body size once (code, not iterations). *)
  let own = (2.0 *. node.stmts) +. node.flops +. node.iops in
  List.fold_left
    (fun acc child -> acc +. innermost_code_size child +. 2.0)
    own node.children
