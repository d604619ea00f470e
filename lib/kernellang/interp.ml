exception Runtime_error of string

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type value = Vint of int | Vfloat of float

type array_storage = { data : float array; dims : int array }

type env = {
  params : (string, int) Hashtbl.t;
  scalars : (string, float) Hashtbl.t;
  arrays : (string, array_storage) Hashtbl.t;
  indices : (string, int) Hashtbl.t;  (* live loop indices *)
  on_access : (string -> int -> bool -> unit) option;
      (* array, flat offset, is_write: called on every load/store *)
}

let param env name =
  match Hashtbl.find_opt env.params name with
  | Some v -> v
  | None -> error "unknown parameter %s" name

let as_int = function
  | Vint n -> n
  | Vfloat x -> error "expected an integer value, got float %g" x

let as_float = function Vint n -> float_of_int n | Vfloat x -> x

let rec eval env (e : Ast.expr) =
  match e with
  | Int_lit n -> Vint n
  | Float_lit x -> Vfloat x
  | Var x -> (
      match Hashtbl.find_opt env.indices x with
      | Some n -> Vint n
      | None -> (
          match Hashtbl.find_opt env.params x with
          | Some n -> Vint n
          | None -> (
              match Hashtbl.find_opt env.scalars x with
              | Some f -> Vfloat f
              | None -> error "unbound variable %s" x)))
  | Index (a, indices) -> Vfloat (load env a indices)
  | Binop (op, a, b) -> eval_binop env op a b
  | Neg a -> (
      match eval env a with
      | Vint n -> Vint (-n)
      | Vfloat x -> Vfloat (-.x))
  | Sqrt a -> Vfloat (sqrt (as_float (eval env a)))

and eval_binop env (op : Ast.binop) a b =
  let va = eval env a and vb = eval env b in
  match (op, va, vb) with
  | Min, Vint x, Vint y -> Vint (Stdlib.min x y)
  | Max, Vint x, Vint y -> Vint (Stdlib.max x y)
  | Min, _, _ -> Vfloat (Float.min (as_float va) (as_float vb))
  | Max, _, _ -> Vfloat (Float.max (as_float va) (as_float vb))
  | Add, Vint x, Vint y -> Vint (x + y)
  | Sub, Vint x, Vint y -> Vint (x - y)
  | Mul, Vint x, Vint y -> Vint (x * y)
  | Idiv, Vint x, Vint y ->
      if y = 0 then error "integer division by zero" else Vint (x / y)
  | Mod, Vint x, Vint y ->
      if y = 0 then error "modulo by zero" else Vint (x mod y)
  | (Idiv | Mod), _, _ -> error "integer division applied to float operands"
  | Add, _, _ -> Vfloat (as_float va +. as_float vb)
  | Sub, _, _ -> Vfloat (as_float va -. as_float vb)
  | Mul, _, _ -> Vfloat (as_float va *. as_float vb)
  | Div, _, _ -> Vfloat (as_float va /. as_float vb)

and flat_offset env a indices =
  match Hashtbl.find_opt env.arrays a with
  | None -> error "unknown array %s" a
  | Some storage ->
      let rank = Array.length storage.dims in
      if List.length indices <> rank then
        error "array %s used with rank %d, declared %d" a
          (List.length indices) rank;
      let offset = ref 0 in
      List.iteri
        (fun k e ->
          let idx = as_int (eval env e) in
          let extent = storage.dims.(k) in
          if idx < 0 || idx >= extent then
            error "index %d out of bounds [0,%d) in dimension %d of %s" idx
              extent k a;
          offset := (!offset * extent) + idx)
        indices;
      (storage, !offset)

and load env a indices =
  let storage, off = flat_offset env a indices in
  (match env.on_access with Some f -> f a off false | None -> ());
  storage.data.(off)

let store env a indices value =
  let storage, off = flat_offset env a indices in
  (match env.on_access with Some f -> f a off true | None -> ());
  storage.data.(off) <- value

let rec eval_cond env (c : Ast.cond) =
  match c with
  | Cmp (op, a, b) ->
      let x = as_float (eval env a) and y = as_float (eval env b) in
      (match op with
      | Eq -> x = y
      | Ne -> x <> y
      | Lt -> x < y
      | Le -> x <= y
      | Gt -> x > y
      | Ge -> x >= y)
  | And (a, b) -> eval_cond env a && eval_cond env b
  | Or (a, b) -> eval_cond env a || eval_cond env b
  | Not a -> not (eval_cond env a)

let rec exec env (s : Ast.stmt) =
  match s with
  | Assign (Scalar_lhs x, e) ->
      if not (Hashtbl.mem env.scalars x) then error "unknown scalar %s" x;
      Hashtbl.replace env.scalars x (as_float (eval env e))
  | Assign (Array_lhs (a, indices), e) ->
      store env a indices (as_float (eval env e))
  | Seq ss -> List.iter (exec env) ss
  | For { index; lo; hi; step; body } ->
      let lo = as_int (eval env lo) and hi = as_int (eval env hi) in
      let saved = Hashtbl.find_opt env.indices index in
      let i = ref lo in
      while !i <= hi do
        Hashtbl.replace env.indices index !i;
        exec env body;
        i := !i + step
      done;
      (match saved with
      | Some v -> Hashtbl.replace env.indices index v
      | None -> Hashtbl.remove env.indices index)
  | If (c, t, e) ->
      if eval_cond env c then exec env t
      else Option.iter (exec env) e

let init ?(param_overrides = []) ?(array_init = fun _ _ -> 0.0) ?on_access
    (kernel : Ast.kernel) =
  let env =
    {
      params = Hashtbl.create 8;
      scalars = Hashtbl.create 8;
      arrays = Hashtbl.create 8;
      indices = Hashtbl.create 8;
      on_access;
    }
  in
  List.iter (fun (name, value) -> Hashtbl.replace env.params name value)
    kernel.params;
  List.iter
    (fun (name, value) ->
      if not (Hashtbl.mem env.params name) then
        error "override for unknown parameter %s" name;
      Hashtbl.replace env.params name value)
    param_overrides;
  List.iter (fun s -> Hashtbl.replace env.scalars s 0.0) kernel.scalars;
  List.iter
    (fun (d : Ast.array_decl) ->
      let dims =
        Array.of_list (List.map (fun e -> as_int (eval env e)) d.dims)
      in
      Array.iter
        (fun extent ->
          if extent <= 0 then
            error "array %s has non-positive extent %d" d.array_name extent)
        dims;
      let size = Array.fold_left ( * ) 1 dims in
      let data = Array.init size (array_init d.array_name) in
      Hashtbl.replace env.arrays d.array_name { data; dims })
    kernel.arrays;
  env

let run env (kernel : Ast.kernel) = exec env kernel.body

let read_array env name =
  match Hashtbl.find_opt env.arrays name with
  | Some storage -> Array.copy storage.data
  | None -> error "unknown array %s" name

let read_scalar env name =
  match Hashtbl.find_opt env.scalars name with
  | Some v -> v
  | None -> error "unknown scalar %s" name

let eval_int_expr env e = as_int (eval env e)

let run_kernel ?param_overrides ?array_init (kernel : Ast.kernel) =
  let env = init ?param_overrides ?array_init kernel in
  run env kernel;
  List.map
    (fun (d : Ast.array_decl) -> (d.array_name, read_array env d.array_name))
    kernel.arrays

let array_extent env name =
  match Hashtbl.find_opt env.arrays name with
  | Some storage -> Array.length storage.data
  | None -> error "unknown array %s" name
