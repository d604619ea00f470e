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

(* Scratch of one [analyze] call, shared by the [env] of every loop it
   visits.  [eval], [coeff] and [flat] hand their float results back in
   [stack]: each writes its result to [stack.(sp)] and evaluates its
   operands in the slots above, so no float is boxed on the way; the
   array grows on demand, and is read only after the calls that may grow
   it.  [direct_stats] hands back a statement's flop, iop and statement
   counts in [counts], and [count_ops] counts operators into [flops] and
   [iops]. *)
type scratch = {
  mutable stack : float array;
  counts : float array;
  mutable flops : int;
  mutable iops : int;
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
  scratch : scratch;
}

exception Non_affine

(* Association lists keyed by parameter and array names, looked up with
   [String.equal] rather than polymorphic equality. *)
let rec assoc_opt name = function
  | [] -> None
  | (k, v) :: rest ->
      if String.equal k name then Some v else assoc_opt name rest

let rec param params x =
  match params with
  | [] -> raise Non_affine
  | (k, v) :: rest -> if String.equal k x then v else param rest x

(* Slot of the live index [x], or -1 if [x] is not a live index. *)
let rec slot_below live x s =
  if s < 0 then -1
  else if String.equal live.(s) x then s
  else slot_below live x (s - 1)

let slot env x = slot_below env.live x (Array.length env.live - 1)

(* Room for results at [sp] and [sp + 1]. *)
let reserve env sp =
  let s = env.scratch in
  if sp + 1 >= Array.length s.stack then
    s.stack <- Array.append s.stack (Array.make (sp + 2) 0.0)

(* Numeric evaluation of an expression into [stack.(sp)], parameters at
   their values and every live index at its average value or, with
   [~zeroed:true], at zero, marking the index in [env.mentioned].  Used
   for loop bounds and constant terms; Min/Max/Idiv are common there
   (tile edges, unroll remainder bounds). *)
let rec eval env ~zeroed (e : Ast.expr) sp =
  reserve env sp;
  match e with
  | Int_lit n -> env.scratch.stack.(sp) <- float_of_int n
  | Float_lit x -> env.scratch.stack.(sp) <- x
  | Var x -> (
      match slot env x with
      | -1 -> env.scratch.stack.(sp) <- param env.params x
      | s ->
          if zeroed then begin
            env.mentioned.(s) <- true;
            env.scratch.stack.(sp) <- 0.0
          end
          else env.scratch.stack.(sp) <- env.mids.(s))
  | Index _ -> raise Non_affine
  | Binop (op, a, b) ->
      eval env ~zeroed a sp;
      eval env ~zeroed b (sp + 1);
      let st = env.scratch.stack in
      let x = st.(sp) and y = st.(sp + 1) in
      st.(sp) <-
        (match op with
        | Add -> x +. y
        | Sub -> x -. y
        | Mul -> x *. y
        | Div -> x /. y
        | Idiv ->
            (* Truncated division: a divisor in (-1, 1) truncates to
               zero. *)
            let d = int_of_float y in
            if d = 0 then raise Non_affine
            else Float.of_int (int_of_float x / d)
        | Mod -> if y = 0.0 then raise Non_affine else Float.rem x y
        | Min -> Float.min x y
        | Max -> Float.max x y)
  | Neg a ->
      eval env ~zeroed a sp;
      let st = env.scratch.stack in
      st.(sp) <- -.st.(sp)
  | Sqrt a ->
      eval env ~zeroed a sp;
      let st = env.scratch.stack in
      st.(sp) <- sqrt st.(sp)

(* The value of [e] with every live index at its average value. *)
let eval_avg env e =
  eval env ~zeroed:false e 0;
  env.scratch.stack.(0)

(* Whether [e] mentions a live index. *)
let rec depends env (e : Ast.expr) =
  match e with
  | Int_lit _ | Float_lit _ -> false
  | Var x -> slot env x >= 0
  | Index (_, subs) -> depends_any env subs
  | Binop (_, a, b) -> depends env a || depends env b
  | Neg a | Sqrt a -> depends env a

and depends_any env = function
  | [] -> false
  | e :: rest -> depends env e || depends_any env rest

(* Affine coefficient of [var] in an integer expression, into
   [stack.(sp)], with all other live indices treated as symbolic
   (coefficient extraction) and parameters as constants.  Raises
   [Non_affine] on products of two var-dependent terms, or
   Idiv/Mod/Min/Max applied to var-dependent operands.  Whether it raises
   does not depend on [var]. *)
let rec coeff env var (e : Ast.expr) sp =
  reserve env sp;
  match e with
  | Int_lit _ | Float_lit _ -> env.scratch.stack.(sp) <- 0.0
  | Var x -> env.scratch.stack.(sp) <- (if String.equal x var then 1.0 else 0.0)
  | Index _ -> raise Non_affine
  | Neg a ->
      coeff env var a sp;
      let st = env.scratch.stack in
      st.(sp) <- -.st.(sp)
  | Sqrt a ->
      if depends env a then raise Non_affine else env.scratch.stack.(sp) <- 0.0
  | Binop (Add, a, b) ->
      coeff env var a sp;
      coeff env var b (sp + 1);
      let st = env.scratch.stack in
      st.(sp) <- st.(sp) +. st.(sp + 1)
  | Binop (Sub, a, b) ->
      coeff env var a sp;
      coeff env var b (sp + 1);
      let st = env.scratch.stack in
      st.(sp) <- st.(sp) -. st.(sp + 1)
  | Binop (Mul, a, b) ->
      if not (depends env a) then begin
        eval env ~zeroed:false a sp;
        coeff env var b (sp + 1)
      end
      else if not (depends env b) then begin
        coeff env var a sp;
        eval env ~zeroed:false b (sp + 1)
      end
      else raise Non_affine;
      let st = env.scratch.stack in
      st.(sp) <- st.(sp) *. st.(sp + 1)
  | Binop ((Div | Idiv | Mod | Min | Max), a, b) ->
      if depends env a || depends env b then raise Non_affine
      else env.scratch.stack.(sp) <- 0.0

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

(* Count the operators of [e] into [flops] (outside subscripts) and
   [iops] (inside them); [in_subscript] says where [e] itself is. *)
let rec count_ops s in_subscript (e : Ast.expr) =
  match e with
  | Int_lit _ | Float_lit _ | Var _ -> ()
  | Index (_, subs) -> count_ops_list s subs
  | Binop (_, a, b) ->
      count_ops s in_subscript a;
      count_ops s in_subscript b;
      count_op s in_subscript
  | Neg a | Sqrt a ->
      count_ops s in_subscript a;
      count_op s in_subscript

and count_op s in_subscript =
  if in_subscript then s.iops <- s.iops + 1 else s.flops <- s.flops + 1

and count_ops_list s = function
  | [] -> ()
  | e :: rest ->
      count_ops s true e;
      count_ops_list s rest

(* A stream of the loop body under analysis, still taking accesses: its
   key, the number of accesses seen so far, and the distinct constant
   offsets among them, sorted under [Float.compare], in
   [offsets.(0 .. distinct - 1)]. *)
type pending = {
  key_array : string;
  key_coeffs : (string * float) list;
  key_affine : bool;
  mutable offsets : float array;
  mutable distinct : int;
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

(* Count one access, whose constant offset is in [stack.(0)], into [p]:
   a binary search of the sorted distinct offsets either finds its class
   or the place to open it. *)
let add_offset env p =
  let x = env.scratch.stack.(0) in
  let lo = ref 0 and hi = ref p.distinct and found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let k = Float.compare p.offsets.(mid) x in
    if k < 0 then lo := mid + 1
    else if k > 0 then hi := mid
    else found := true
  done;
  if not !found then begin
    if p.distinct = Array.length p.offsets then
      p.offsets <- Array.append p.offsets (Array.make p.distinct 0.0);
    Array.blit p.offsets !lo p.offsets (!lo + 1) (p.distinct - !lo);
    p.offsets.(!lo) <- x;
    p.distinct <- p.distinct + 1
  end;
  p.count <- p.count + 1

let rec join env array ~top ~affine = function
  | [] -> false
  | p :: rest ->
      let k = compare_key env array ~top ~affine p in
      if k = 0 then begin
        add_offset env p;
        true
      end
      else k < 0 && join env array ~top ~affine rest

let rec insert env array ~top ~affine p = function
  | q :: rest when compare_key env array ~top ~affine q < 0 ->
      q :: insert env array ~top ~affine p rest
  | l -> p :: l

(* Count one access, whose constant offset is in [stack.(0)], into the
   stream of its key, opening the stream in its place if the key is new.
   A body has few streams (the translated copies of an access share
   one), so a scan of the sorted list finds it. *)
let push env body array ~top ~affine =
  if not (join env array ~top ~affine body.pending) then begin
    let p =
      {
        key_array = array;
        key_coeffs = coeffs_of env ~top;
        key_affine = affine;
        offsets = Array.make 4 0.0;
        distinct = 0;
        count = 0;
      }
    in
    add_offset env p;
    body.pending <- insert env array ~top ~affine p body.pending
  end

let close p =
  {
    array = p.key_array;
    coeffs = p.key_coeffs;
    affine = p.key_affine;
    distinct = p.distinct;
    mult = p.count;
  }

let rec row_strides_of array = function
  | [] -> [||]
  | (name, s) :: rest ->
      if String.equal name array then s else row_strides_of array rest

(* Row-major flattening into [stack.(sp)]: the sum over dimensions of a
   subscript's constant term (for [slot] -1, with every live index at
   zero) or of its coefficient on the index of [slot], times the product
   of the extents of later dimensions (1 past the declared rank). *)
let rec flat_terms env ~slot row_strides k subs sp =
  match subs with
  | [] -> ()
  | sub :: rest ->
      if slot < 0 then eval env ~zeroed:true sub (sp + 1)
      else coeff env env.live.(slot) sub (sp + 1);
      let st = env.scratch.stack in
      let stride =
        if k < Array.length row_strides then row_strides.(k) else 1.0
      in
      st.(sp) <- st.(sp) +. (st.(sp + 1) *. stride);
      flat_terms env ~slot row_strides (k + 1) rest sp

let flat env ~slot row_strides subs sp =
  reserve env sp;
  env.scratch.stack.(sp) <- 0.0;
  flat_terms env ~slot row_strides 0 subs sp

(* Count an access into [body].  One walk of the subscripts yields the
   constant term, in [stack.(0)], and marks the live indices they
   mention; only those get a coefficient walk.  Any other index's
   coefficient is exactly +0.0, unless a non-finite scalar factor or
   extent makes it NaN — and then the constant term is not finite
   either, so every index is walked.  A non-affine access has no
   coefficients and offset 0. *)
let add_access ~env ~strides body array subs =
  let row_strides = row_strides_of array strides in
  let n = Array.length env.live in
  Array.fill env.mentioned 0 n false;
  match
    flat env ~slot:(-1) row_strides subs 0;
    let every = not (Float.is_finite env.scratch.stack.(0)) in
    for s = 0 to n - 1 do
      if every || env.mentioned.(s) then begin
        flat env ~slot:s row_strides subs 1;
        env.raw.(s) <- env.scratch.stack.(1)
      end
      else env.raw.(s) <- 0.0
    done
  with
  | () ->
      expand env ~skip_zero:false env.raw env.totals;
      push env body array ~top:(n - 1) ~affine:true
  | exception Non_affine ->
      env.scratch.stack.(0) <- 0.0;
      push env body array ~top:(-1) ~affine:false

(* Count the accesses of [e] into [body], each before those of its
   subscripts. *)
let rec reads ~env ~strides body (e : Ast.expr) =
  match e with
  | Int_lit _ | Float_lit _ | Var _ -> ()
  | Index (a, subs) ->
      add_access ~env ~strides body a subs;
      reads_list ~env ~strides body subs
  | Binop (_, a, b) ->
      reads ~env ~strides body a;
      reads ~env ~strides body b
  | Neg a | Sqrt a -> reads ~env ~strides body a

and reads_list ~env ~strides body = function
  | [] -> ()
  | e :: rest ->
      reads ~env ~strides body e;
      reads_list ~env ~strides body rest

let rec cond_ops s (c : Ast.cond) =
  match c with
  | Cmp (_, a, b) ->
      count_ops s false a;
      count_ops s false b
  | And (a, b) | Or (a, b) ->
      cond_ops s a;
      cond_ops s b
  | Not a -> cond_ops s a

(* Direct statistics of statements under [s], stopping at nested loops.
   The accesses found are counted into [body]'s streams and the nested
   loops pushed onto its [loops]; the flop, iop and statement counts are
   handed back in [counts], summed in the shape of the statement
   tree. *)
let rec direct_stats ~env ~strides body (s : Ast.stmt) =
  let sc = env.scratch in
  let c = sc.counts in
  match s with
  | Assign (lhs, rhs) ->
      sc.flops <- 0;
      sc.iops <- 0;
      (match lhs with
      | Scalar_lhs _ -> ()
      | Array_lhs (a, subs) ->
          add_access ~env ~strides body a subs;
          lhs_ops sc subs);
      reads ~env ~strides body rhs;
      count_ops sc false rhs;
      c.(0) <- float_of_int sc.flops;
      c.(1) <- float_of_int sc.iops;
      c.(2) <- 1.0
  | Seq ss ->
      (* The running sums stay in locals: each statement reuses
         [counts]. *)
      let f = ref 0.0 and i = ref 0.0 and n = ref 0.0 and rest = ref ss in
      while !rest != [] do
        match !rest with
        | [] -> ()
        | s :: tl ->
            rest := tl;
            direct_stats ~env ~strides body s;
            f := !f +. c.(0);
            i := !i +. c.(1);
            n := !n +. c.(2)
      done;
      c.(0) <- !f;
      c.(1) <- !i;
      c.(2) <- !n
  | For l ->
      body.loops <- l :: body.loops;
      c.(0) <- 0.0;
      c.(1) <- 0.0;
      c.(2) <- 0.0
  | If (cond, t, e) ->
      (* Count both branches at half weight: a cheap expected-cost model of
         data-dependent branches. *)
      sc.flops <- 0;
      sc.iops <- 0;
      cond_ops sc cond;
      let cond_iops = sc.flops + sc.iops in
      direct_stats ~env ~strides body t;
      let ft = c.(0) and it = c.(1) and nt = c.(2) in
      (match e with
      | None ->
          c.(0) <- 0.0;
          c.(1) <- 0.0;
          c.(2) <- 0.0
      | Some e -> direct_stats ~env ~strides body e);
      c.(0) <- ((ft +. c.(0)) /. 2.0) +. float_of_int cond_iops;
      c.(1) <- (it +. c.(1)) /. 2.0;
      c.(2) <- ((nt +. c.(2)) /. 2.0) +. 1.0

(* The operators of an assignment's own subscripts: each subscript's
   operators as if outside an access, plus one iop for the
   subscript. *)
and lhs_ops sc = function
  | [] -> ()
  | e :: rest ->
      count_ops sc false e;
      sc.iops <- sc.iops + 1;
      lhs_ops sc rest

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
    let raw = Array.make (Array.length env.live) 0.0 in
    Array.iteri
      (fun s v ->
        match coeff env v l.lo 0 with
        | () ->
            let c = env.scratch.stack.(0) in
            if c <> 0.0 then raw.(s) <- c
        | exception Non_affine -> ())
      env.live;
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
  direct_stats ~env:env' ~strides body l.body;
  let counts = env.scratch.counts in
  let flops = counts.(0) and iops = counts.(1) and stmts = counts.(2) in
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
      scratch =
        { stack = Array.make 16 0.0; counts = Array.make 3 0.0; flops = 0;
          iops = 0 };
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
  direct_stats ~env ~strides body kernel.body;
  let straightline = env.scratch.counts.(2) in
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
