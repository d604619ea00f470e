type severity = Error | Warning | Info

type loc = { loops : string list; stmt : int; detail : string }

type diagnostic = {
  severity : severity;
  code : string;
  loc : loc;
  message : string;
}

let pp_severity ppf s =
  Format.pp_print_string ppf
    (match s with Error -> "error" | Warning -> "warning" | Info -> "note")

let pp_loc ppf l =
  (match (l.stmt, l.loops) with
  | 0, _ -> Format.pp_print_string ppf "declarations"
  | n, [] -> Format.fprintf ppf "statement %d" n
  | n, loops ->
      Format.fprintf ppf "statement %d in loop %s" n
        (String.concat " > " loops));
  if l.detail <> "" then Format.fprintf ppf ", at %s" l.detail

let pp_diagnostic ppf d =
  Format.fprintf ppf "%a[%s] %a: %s" pp_severity d.severity d.code pp_loc
    d.loc d.message

let diagnostic_to_string d = Format.asprintf "%a" pp_diagnostic d

let errors = List.filter (fun d -> d.severity = Error)
let count s = List.fold_left (fun n d -> if d.severity = s then n + 1 else n) 0

(* --- Interval arithmetic over index expressions ---

   Sound over-approximation of the value range of an integer expression
   given ranges for the loop indices (and point ranges for parameters).
   A step > 1 widens the index range to every value between the bounds,
   which stays sound.  [None] = no usable bound. *)

type interval = { ilo : int; ihi : int }

let point n = { ilo = n; ihi = n }

let rec eval_iv env (e : Ast.expr) : interval option =
  match e with
  | Int_lit n -> Some (point n)
  | Var x -> Hashtbl.find_opt env x
  | Neg a ->
      Option.map (fun i -> { ilo = -i.ihi; ihi = -i.ilo }) (eval_iv env a)
  | Binop (op, a, b) -> (
      match (eval_iv env a, eval_iv env b) with
      | Some x, Some y -> (
          match op with
          | Add -> Some { ilo = x.ilo + y.ilo; ihi = x.ihi + y.ihi }
          | Sub -> Some { ilo = x.ilo - y.ihi; ihi = x.ihi - y.ilo }
          | Mul ->
              let products =
                [ x.ilo * y.ilo; x.ilo * y.ihi; x.ihi * y.ilo; x.ihi * y.ihi ]
              in
              Some
                {
                  ilo = List.fold_left min max_int products;
                  ihi = List.fold_left max min_int products;
                }
          | Min -> Some { ilo = min x.ilo y.ilo; ihi = min x.ihi y.ihi }
          | Max -> Some { ilo = max x.ilo y.ilo; ihi = max x.ihi y.ihi }
          | Idiv ->
              (* OCaml's truncated division is monotone in the numerator
                 for a positive constant divisor. *)
              if y.ilo = y.ihi && y.ilo > 0 then
                Some { ilo = x.ilo / y.ilo; ihi = x.ihi / y.ilo }
              else None
          | Mod ->
              if y.ilo = y.ihi && y.ilo > 0 then
                let m = y.ilo - 1 in
                if x.ilo >= 0 then Some { ilo = 0; ihi = m }
                else Some { ilo = -m; ihi = m }
              else None
          | Div -> None)
      | _ -> None)
  | Float_lit _ | Index _ | Sqrt _ -> None

let expr_snippet e = Format.asprintf "%a" Pretty.pp_expr e

let rec dup_of = function
  | [] -> None
  | x :: rest -> if List.mem x rest then Some x else dup_of rest

let lint ?(param_overrides = []) (k : Ast.kernel) =
  let diags = ref [] in
  let emit severity code ?(loops = []) ?(stmt = 0) ?(detail = "") fmt =
    Format.kasprintf
      (fun message ->
        diags := { severity; code; loc = { loops; stmt; detail }; message }
                 :: !diags)
      fmt
  in
  let is_param x = List.mem_assoc x k.params in
  let is_scalar x = List.mem x k.scalars in

  (* Declaration-level checks. *)
  (match dup_of (List.map fst k.params) with
  | Some x ->
      emit Error "duplicate-declaration" ~detail:x
        "parameter %s is declared more than once" x
  | None -> ());
  (match dup_of k.scalars with
  | Some x ->
      emit Error "duplicate-declaration" ~detail:x
        "scalar %s is declared more than once" x
  | None -> ());
  (match dup_of (List.map (fun (d : Ast.array_decl) -> d.array_name) k.arrays)
   with
  | Some a ->
      emit Error "duplicate-declaration" ~detail:a
        "array %s is declared more than once" a
  | None -> ());
  List.iter
    (fun s ->
      if is_param s then
        emit Warning "scalar-shadows-param" ~detail:s
          "scalar %s has the same name as a parameter; the parameter wins \
           on lookup, making the scalar unreachable"
          s)
    k.scalars;

  (* Parameter environment (point intervals), with overrides applied. *)
  let ivals : (string, interval) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (name, v) -> Hashtbl.replace ivals name (point v)) k.params;
  List.iter
    (fun (name, v) ->
      if is_param name then Hashtbl.replace ivals name (point v)
      else
        emit Warning "unknown-parameter-override" ~detail:name
          "override for %s does not match any declared parameter" name)
    param_overrides;
  let subst_params e =
    List.fold_left
      (fun e (name, _) ->
        match Hashtbl.find_opt ivals name with
        | Some { ilo; ihi } when ilo = ihi ->
            Ast.subst_expr ~var:name ~by:(Int_lit ilo) e
        | _ -> e)
      e k.params
  in

  (* Array ranks and concrete per-dimension extents (when computable). *)
  let rank : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let extents : (string, int option array) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (d : Ast.array_decl) ->
      Hashtbl.replace rank d.array_name (List.length d.dims);
      let exts =
        Array.of_list
          (List.mapi
             (fun i dim ->
               List.iter
                 (fun x ->
                   if not (is_param x) then
                     emit Error "unbound-variable" ~detail:(expr_snippet dim)
                       "dimension %d of array %s references %s, which is \
                        not a parameter (loop indices and scalars are not \
                        in scope for extents)"
                       i d.array_name x)
                 (Ast.free_vars dim);
               match eval_iv ivals dim with
               | Some { ilo; ihi } when ilo = ihi ->
                   if ilo <= 0 then
                     emit Error "nonpositive-extent"
                       ~detail:(expr_snippet dim)
                       "dimension %d of array %s evaluates to %d under the \
                        current parameters; extents must be positive"
                       i d.array_name ilo;
                   Some ilo
               | _ -> None)
             d.dims)
      in
      Hashtbl.replace extents d.array_name exts)
    k.arrays;

  let arrays_read : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let arrays_written : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let seen_indices : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let stmt_counter = ref 0 in
  (* False while walking the body of a loop that may execute zero times
     under the current parameters (e.g. the main loop of an unroll whose
     factor exceeds the trip count).  A definitely-out-of-range subscript
     there is dead code, not a definite error. *)
  let live = ref true in

  (* Scope + integer-typedness of an expression in index position
     (subscript or loop bound): only integer literals, loop indices,
     parameters, and integer arithmetic are allowed there — anything
     float-valued would make the interpreter's [as_int] fail at runtime. *)
  let rec check_index_expr ~bound ~loops ~stmt ~code e0 =
    let detail = expr_snippet e0 in
    let rec go (e : Ast.expr) =
      match e with
      | Int_lit _ -> ()
      | Float_lit x ->
          emit Error code ~loops ~stmt ~detail
            "float literal %g in an integer index position" x
      | Var x ->
          if List.mem x bound || is_param x then ()
          else if is_scalar x then
            emit Error code ~loops ~stmt ~detail
              "scalar %s is float-valued and cannot be used in an integer \
               index position"
              x
          else
            emit Error "unbound-variable" ~loops ~stmt ~detail
              "variable %s is not an enclosing loop index, parameter, or \
               scalar"
              x
      | Index (a, subs) ->
          emit Error code ~loops ~stmt ~detail
            "array element %s[...] is float-valued and cannot be used in \
             an integer index position"
            a;
          check_access ~is_write:false ~bound ~loops ~stmt a subs
      | Binop (Div, a, b) ->
          emit Error code ~loops ~stmt ~detail
            "float division in an integer index position (use integer \
             division)";
          go a;
          go b
      | Sqrt a ->
          emit Error code ~loops ~stmt ~detail
            "sqrt in an integer index position";
          go a
      | Binop (_, a, b) ->
          go a;
          go b
      | Neg a -> go a
    in
    go e0

  and check_access ~is_write ~bound ~loops ~stmt a subs =
    if is_write then Hashtbl.replace arrays_written a ()
    else Hashtbl.replace arrays_read a ();
    let detail = expr_snippet (Index (a, subs)) in
    (match Hashtbl.find_opt rank a with
    | None ->
        emit Error "unknown-array" ~loops ~stmt ~detail
          "array %s is not declared" a
    | Some r ->
        if r <> List.length subs then
          emit Error "rank-mismatch" ~loops ~stmt ~detail
            "array %s is declared with rank %d but used with rank %d" a r
            (List.length subs));
    List.iteri
      (fun d sub ->
        check_index_expr ~bound ~loops ~stmt ~code:"non-integer-subscript"
          sub;
        match Hashtbl.find_opt extents a with
        | None -> ()
        | Some exts when d >= Array.length exts -> ()
        | Some exts -> (
            match exts.(d) with
            | None -> ()
            | Some ext -> (
                match eval_iv ivals sub with
                | None -> ()
                | Some { ilo; ihi } ->
                    if ihi < 0 || ilo >= ext then begin
                      if !live then
                        emit Error "out-of-bounds" ~loops ~stmt ~detail
                          "subscript %s in dimension %d of %s always lies \
                           outside [0, %d): its value range is [%d, %d]"
                          (expr_snippet sub) d a ext ilo ihi
                      else
                        emit Warning "may-out-of-bounds" ~loops ~stmt ~detail
                          "subscript %s in dimension %d of %s lies outside \
                           [0, %d) (value range [%d, %d]), but an enclosing \
                           loop may execute zero times"
                          (expr_snippet sub) d a ext ilo ihi
                    end
                    else if ilo < 0 || ihi >= ext then
                      emit Warning "may-out-of-bounds" ~loops ~stmt ~detail
                        "subscript %s in dimension %d of %s may leave \
                         [0, %d): its value range is [%d, %d]"
                        (expr_snippet sub) d a ext ilo ihi)))
      subs;
    (* Affine classification against the enclosing loop indices. *)
    let non_affine =
      List.filteri
        (fun _ sub ->
          Dependence.affine_view ~loop_indices:bound (subst_params sub)
          = None)
        subs
    in
    match non_affine with
    | [] -> ()
    | sub :: _ ->
        emit Info "non-affine-access" ~loops ~stmt ~detail
          "subscript %s is not affine in the enclosing loop indices; the \
           machine model treats this access as a worst-case gather"
          (expr_snippet sub)
  in

  let rec check_value_expr ~bound ~loops ~stmt (e : Ast.expr) =
    match e with
    | Int_lit _ | Float_lit _ -> ()
    | Var x ->
        if not (List.mem x bound || is_param x || is_scalar x) then
          emit Error "unbound-variable" ~loops ~stmt ~detail:x
            "variable %s is not an enclosing loop index, parameter, or \
             scalar"
            x
    | Index (a, subs) -> check_access ~is_write:false ~bound ~loops ~stmt a subs
    | Binop (_, a, b) ->
        check_value_expr ~bound ~loops ~stmt a;
        check_value_expr ~bound ~loops ~stmt b
    | Neg a | Sqrt a -> check_value_expr ~bound ~loops ~stmt a
  in
  let rec check_cond ~bound ~loops ~stmt (c : Ast.cond) =
    match c with
    | Cmp (_, a, b) ->
        check_value_expr ~bound ~loops ~stmt a;
        check_value_expr ~bound ~loops ~stmt b
    | And (a, b) | Or (a, b) ->
        check_cond ~bound ~loops ~stmt a;
        check_cond ~bound ~loops ~stmt b
    | Not a -> check_cond ~bound ~loops ~stmt a
  in

  let rec walk ~bound ~loops (s : Ast.stmt) =
    match s with
    | Assign (lhs, rhs) ->
        incr stmt_counter;
        let stmt = !stmt_counter in
        (match lhs with
        | Scalar_lhs x ->
            if List.mem x bound then
              emit Error "assign-to-index" ~loops ~stmt ~detail:x
                "assignment to loop index %s" x
            else if is_param x then
              emit Error "assign-to-param" ~loops ~stmt ~detail:x
                "assignment to problem-size parameter %s" x
            else if not (is_scalar x) then
              emit Error "unbound-variable" ~loops ~stmt ~detail:x
                "assignment to undeclared scalar %s" x
        | Array_lhs (a, subs) ->
            check_access ~is_write:true ~bound ~loops ~stmt a subs);
        check_value_expr ~bound ~loops ~stmt rhs
    | Seq ss -> List.iter (walk ~bound ~loops) ss
    | If (c, t, e) ->
        incr stmt_counter;
        check_cond ~bound ~loops ~stmt:!stmt_counter c;
        walk ~bound ~loops t;
        Option.iter (walk ~bound ~loops) e
    | For l ->
        incr stmt_counter;
        let stmt = !stmt_counter in
        let detail = l.index in
        if l.step <= 0 then
          emit Error "nonpositive-step" ~loops ~stmt ~detail
            "loop %s has step %d; steps must be positive" l.index l.step;
        if List.mem l.index bound then
          emit Error "duplicate-loop-index" ~loops ~stmt ~detail
            "loop index %s rebinds an enclosing loop's index" l.index
        else if Hashtbl.mem seen_indices l.index then
          emit Error "duplicate-loop-index" ~loops ~stmt ~detail
            "loop index %s is reused by another loop in this kernel"
            l.index;
        Hashtbl.replace seen_indices l.index ();
        if is_param l.index then
          emit Warning "index-shadows-param" ~loops ~stmt ~detail
            "loop index %s shadows a parameter of the same name" l.index;
        if is_scalar l.index then
          emit Warning "index-shadows-scalar" ~loops ~stmt ~detail
            "loop index %s shadows a scalar of the same name" l.index;
        check_index_expr ~bound ~loops ~stmt ~code:"non-integer-bound" l.lo;
        check_index_expr ~bound ~loops ~stmt ~code:"non-integer-bound" l.hi;
        let lo_iv = eval_iv ivals l.lo and hi_iv = eval_iv ivals l.hi in
        let definitely_empty =
          match (lo_iv, hi_iv) with
          | Some lo, Some hi -> hi.ihi < lo.ilo
          | _ -> false
        in
        let definitely_nonempty =
          match (lo_iv, hi_iv) with
          | Some lo, Some hi -> hi.ilo >= lo.ihi
          | _ -> false
        in
        if definitely_empty then
          emit Warning "empty-loop" ~loops ~stmt ~detail
            "loop %s never executes under the current parameters (bounds \
             %s .. %s)"
            l.index (expr_snippet l.lo) (expr_snippet l.hi);
        let index_iv =
          match (lo_iv, hi_iv) with
          | Some lo, Some hi when not definitely_empty ->
              Some { ilo = lo.ilo; ihi = hi.ihi }
          | _ -> None
        in
        let saved = Hashtbl.find_opt ivals l.index in
        (match index_iv with
        | Some iv -> Hashtbl.replace ivals l.index iv
        | None -> Hashtbl.remove ivals l.index);
        let saved_live = !live in
        live := saved_live && definitely_nonempty;
        walk ~bound:(l.index :: bound) ~loops:(loops @ [ l.index ]) l.body;
        live := saved_live;
        (match saved with
        | Some iv -> Hashtbl.replace ivals l.index iv
        | None -> Hashtbl.remove ivals l.index)
  in
  walk ~bound:[] ~loops:[] k.body;

  (* Whole-kernel dataflow notes. *)
  List.iter
    (fun (d : Ast.array_decl) ->
      let a = d.array_name in
      match (Hashtbl.mem arrays_read a, Hashtbl.mem arrays_written a) with
      | true, true -> ()
      | true, false ->
          emit Info "read-never-written" ~detail:a
            "array %s is read but never written (kernel input)" a
      | false, true ->
          emit Info "write-never-read" ~detail:a
            "array %s is written but never read (kernel output)" a
      | false, false ->
          emit Warning "unused-array" ~detail:a
            "array %s is declared but never accessed" a)
    k.arrays;
  List.rev !diags
