type binop = Add | Sub | Mul | Div | Idiv | Mod | Min | Max
type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Int_lit of int
  | Float_lit of float
  | Var of string
  | Index of string * expr list
  | Binop of binop * expr * expr
  | Neg of expr
  | Sqrt of expr

type cond =
  | Cmp of cmpop * expr * expr
  | And of cond * cond
  | Or of cond * cond
  | Not of cond

type lhs = Scalar_lhs of string | Array_lhs of string * expr list

type stmt =
  | Assign of lhs * expr
  | Seq of stmt list
  | For of loop
  | If of cond * stmt * stmt option

and loop = { index : string; lo : expr; hi : expr; step : int; body : stmt }

type array_decl = { array_name : string; dims : expr list }

type kernel = {
  kernel_name : string;
  params : (string * int) list;
  arrays : array_decl list;
  scalars : string list;
  body : stmt;
}

let seq stmts =
  let rec flatten s acc =
    match s with
    | Seq ss -> List.fold_right flatten ss acc
    | other -> other :: acc
  in
  match List.fold_right flatten stmts [] with
  | [ single ] -> single
  | ss -> Seq ss

let rec free_vars_acc e acc =
  match e with
  | Int_lit _ | Float_lit _ -> acc
  | Var x -> if List.mem x acc then acc else x :: acc
  | Index (_, indices) -> List.fold_right free_vars_acc indices acc
  | Binop (_, a, b) -> free_vars_acc a (free_vars_acc b acc)
  | Neg a | Sqrt a -> free_vars_acc a acc

let free_vars e = free_vars_acc e []

let rec loop_indices = function
  | Assign _ -> []
  | Seq ss -> List.concat_map loop_indices ss
  | For l -> l.index :: loop_indices l.body
  | If (_, t, e) -> (
      loop_indices t @ match e with None -> [] | Some e -> loop_indices e)

let rec find_loop s index =
  match s with
  | Assign _ -> None
  | Seq ss -> List.find_map (fun s -> find_loop s index) ss
  | For l -> if l.index = index then Some l else find_loop l.body index
  | If (_, t, e) -> (
      match find_loop t index with
      | Some _ as r -> r
      | None -> ( match e with None -> None | Some e -> find_loop e index))

let rec subst_expr ~var ~by e =
  match e with
  | Int_lit _ | Float_lit _ -> e
  | Var x -> if x = var then by else e
  | Index (a, indices) -> Index (a, List.map (subst_expr ~var ~by) indices)
  | Binop (op, a, b) -> Binop (op, subst_expr ~var ~by a, subst_expr ~var ~by b)
  | Neg a -> Neg (subst_expr ~var ~by a)
  | Sqrt a -> Sqrt (subst_expr ~var ~by a)

let rec subst_cond ~var ~by c =
  match c with
  | Cmp (op, a, b) -> Cmp (op, subst_expr ~var ~by a, subst_expr ~var ~by b)
  | And (a, b) -> And (subst_cond ~var ~by a, subst_cond ~var ~by b)
  | Or (a, b) -> Or (subst_cond ~var ~by a, subst_cond ~var ~by b)
  | Not a -> Not (subst_cond ~var ~by a)

let subst_lhs ~var ~by l =
  match l with
  | Scalar_lhs _ -> l
  | Array_lhs (a, indices) ->
      Array_lhs (a, List.map (subst_expr ~var ~by) indices)

let rec subst ~var ~by s =
  match s with
  | Assign (l, e) -> Assign (subst_lhs ~var ~by l, subst_expr ~var ~by e)
  | Seq ss -> Seq (List.map (subst ~var ~by) ss)
  | For l ->
      let lo = subst_expr ~var ~by l.lo and hi = subst_expr ~var ~by l.hi in
      (* A loop binding [var] shadows the substitution in its body. *)
      if l.index = var then For { l with lo; hi }
      else For { l with lo; hi; body = subst ~var ~by l.body }
  | If (c, t, e) ->
      If
        ( subst_cond ~var ~by c,
          subst ~var ~by t,
          Option.map (subst ~var ~by) e )

type validation_error =
  | Duplicate_loop_index of string
  | Unbound_variable of string
  | Unknown_array of string
  | Arity_mismatch of string * int * int
  | Nonpositive_step of string

let pp_validation_error ppf = function
  | Duplicate_loop_index x -> Format.fprintf ppf "duplicate loop index %s" x
  | Unbound_variable x -> Format.fprintf ppf "unbound variable %s" x
  | Unknown_array a -> Format.fprintf ppf "unknown array %s" a
  | Arity_mismatch (a, declared, used) ->
      Format.fprintf ppf "array %s declared with rank %d but used with rank %d"
        a declared used
  | Nonpositive_step x ->
      Format.fprintf ppf "loop %s has a non-positive step" x

exception Invalid of validation_error

let validate kernel =
  let array_rank =
    List.map (fun d -> (d.array_name, List.length d.dims)) kernel.arrays
  in
  let check_array a used =
    match List.assoc_opt a array_rank with
    | None -> raise (Invalid (Unknown_array a))
    | Some declared ->
        if declared <> used then
          raise (Invalid (Arity_mismatch (a, declared, used)))
  in
  let check_var bound x =
    let known =
      List.mem x bound
      || List.mem_assoc x kernel.params
      || List.mem x kernel.scalars
    in
    if not known then raise (Invalid (Unbound_variable x))
  in
  let rec check_expr bound e =
    match e with
    | Int_lit _ | Float_lit _ -> ()
    | Var x -> check_var bound x
    | Index (a, indices) ->
        check_array a (List.length indices);
        List.iter (check_expr bound) indices
    | Binop (_, a, b) ->
        check_expr bound a;
        check_expr bound b
    | Neg a | Sqrt a -> check_expr bound a
  in
  let rec check_cond bound c =
    match c with
    | Cmp (_, a, b) ->
        check_expr bound a;
        check_expr bound b
    | And (a, b) | Or (a, b) ->
        check_cond bound a;
        check_cond bound b
    | Not a -> check_cond bound a
  in
  let rec check_stmt bound s =
    match s with
    | Assign (Scalar_lhs x, e) ->
        check_var bound x;
        check_expr bound e
    | Assign (Array_lhs (a, indices), e) ->
        check_array a (List.length indices);
        List.iter (check_expr bound) indices;
        check_expr bound e
    | Seq ss -> List.iter (check_stmt bound) ss
    | For l ->
        if l.step <= 0 then raise (Invalid (Nonpositive_step l.index));
        check_expr bound l.lo;
        check_expr bound l.hi;
        check_stmt (l.index :: bound) l.body
    | If (c, t, e) ->
        check_cond bound c;
        check_stmt bound t;
        Option.iter (check_stmt bound) e
  in
  let check_unique_indices () =
    let indices = loop_indices kernel.body in
    let rec dup = function
      | [] -> None
      | x :: rest -> if List.mem x rest then Some x else dup rest
    in
    match dup indices with
    | Some x -> raise (Invalid (Duplicate_loop_index x))
    | None -> ()
  in
  match
    check_unique_indices ();
    List.iter
      (fun d -> List.iter (check_expr []) d.dims)
      kernel.arrays;
    check_stmt [] kernel.body
  with
  | () -> Ok ()
  | exception Invalid err -> Error err
