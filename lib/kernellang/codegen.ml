(* Identifier conventions in emitted code: parameters [p_<name>], arrays
   [a_<name>], scalars [s_<name>] (refs), loop indices [i_<name>].  The
   prefixes keep everything a valid lowercase OCaml identifier whatever
   the DSL called it. *)

let p_ name = "p_" ^ name
let a_ name = "a_" ^ name
let s_ name = "s_" ^ name
let i_ name = "i_" ^ name

exception Codegen_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Codegen_error s)) fmt

type context = {
  kernel : Ast.kernel;
  dims : (string * Ast.expr list) list;  (* array -> dimension extents *)
}

let classify ctx name =
  if List.mem_assoc name ctx.kernel.params then `Param
  else if List.mem name ctx.kernel.scalars then `Scalar
  else `Index

(* Integer-typed expression (subscripts, bounds). *)
let rec int_expr ctx (e : Ast.expr) : string =
  match e with
  | Int_lit n -> if n < 0 then Printf.sprintf "(%d)" n else string_of_int n
  | Float_lit x -> error "float literal %g in integer context" x
  | Var x -> (
      match classify ctx x with
      | `Param -> p_ x
      | `Index -> i_ x
      | `Scalar -> error "scalar %s in integer context" x)
  | Index (a, _) -> error "array element %s in integer context" a
  | Neg a -> Printf.sprintf "(- %s)" (int_expr ctx a)
  | Sqrt _ -> error "sqrt in integer context"
  | Binop (op, a, b) ->
      let sa = int_expr ctx a and sb = int_expr ctx b in
      let infix op = Printf.sprintf "(%s %s %s)" sa op sb in
      (match op with
      | Add -> infix "+"
      | Sub -> infix "-"
      | Mul -> infix "*"
      | Idiv | Div -> infix "/"
      | Mod -> infix "mod"
      | Min -> Printf.sprintf "(min %s %s)" sa sb
      | Max -> Printf.sprintf "(max %s %s)" sa sb)

(* Flattened row-major element index of an array access. *)
let flat_index ctx array subscripts =
  let dims =
    match List.assoc_opt array ctx.dims with
    | Some d -> d
    | None -> error "unknown array %s" array
  in
  if List.length dims <> List.length subscripts then
    error "array %s rank mismatch" array;
  match subscripts with
  | [] -> "0"
  | first :: rest ->
      List.fold_left2
        (fun acc sub extent ->
          Printf.sprintf "((%s * %s) + %s)" acc (int_expr ctx extent)
            (int_expr ctx sub))
        (int_expr ctx first)
        rest
        (List.tl dims)

(* Float-typed expression (right-hand sides). *)
let rec float_expr ctx (e : Ast.expr) : string =
  match e with
  | Int_lit n -> Printf.sprintf "%d." n
  | Float_lit x -> Printf.sprintf "(%h)" x
  | Var x -> (
      match classify ctx x with
      | `Param -> Printf.sprintf "(float_of_int %s)" (p_ x)
      | `Index -> Printf.sprintf "(float_of_int %s)" (i_ x)
      | `Scalar -> Printf.sprintf "!%s" (s_ x))
  | Index (a, subs) ->
      Printf.sprintf "%s.(%s)" (a_ a) (flat_index ctx a subs)
  | Neg a -> Printf.sprintf "(-. %s)" (float_expr ctx a)
  | Sqrt a -> Printf.sprintf "(sqrt %s)" (float_expr ctx a)
  | Binop (op, a, b) ->
      let sa = float_expr ctx a and sb = float_expr ctx b in
      let infix op = Printf.sprintf "(%s %s %s)" sa op sb in
      (match op with
      | Add -> infix "+."
      | Sub -> infix "-."
      | Mul -> infix "*."
      | Div -> infix "/."
      | Idiv | Mod ->
          (* Integer-only operators: compute in ints, promote.  The
             validator keeps these out of float positions in practice. *)
          Printf.sprintf "(float_of_int %s)" (int_expr ctx e)
      | Min -> Printf.sprintf "(Float.min %s %s)" sa sb
      | Max -> Printf.sprintf "(Float.max %s %s)" sa sb)

(* Conditions mirror the interpreter: compare as floats. *)
let rec cond ctx (c : Ast.cond) : string =
  match c with
  | Cmp (op, a, b) ->
      let sa = float_expr ctx a and sb = float_expr ctx b in
      let sym =
        match op with
        | Eq -> "="
        | Ne -> "<>"
        | Lt -> "<"
        | Le -> "<="
        | Gt -> ">"
        | Ge -> ">="
      in
      Printf.sprintf "(%s %s %s)" sa sym sb
  | And (a, b) -> Printf.sprintf "(%s && %s)" (cond ctx a) (cond ctx b)
  | Or (a, b) -> Printf.sprintf "(%s || %s)" (cond ctx a) (cond ctx b)
  | Not a -> Printf.sprintf "(not %s)" (cond ctx a)

let indent n = String.make (2 * n) ' '

let rec stmt ctx depth buf (s : Ast.stmt) =
  let pad = indent depth in
  match s with
  | Assign (Scalar_lhs x, e) ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s := %s;\n" pad (s_ x) (float_expr ctx e))
  | Assign (Array_lhs (a, subs), e) ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s.(%s) <- %s;\n" pad (a_ a)
           (flat_index ctx a subs) (float_expr ctx e))
  | Seq ss -> List.iter (stmt ctx depth buf) ss
  | For l ->
      let v = i_ l.index in
      if l.step = 1 then begin
        Buffer.add_string buf
          (Printf.sprintf "%sfor %s = %s to %s do\n" pad v
             (int_expr ctx l.lo) (int_expr ctx l.hi));
        stmt ctx (depth + 1) buf l.body;
        Buffer.add_string buf (Printf.sprintf "%sdone;\n" pad)
      end
      else begin
        (* Strided loops as tail-recursive functions, keeping upper-bound
           evaluation out of the loop. *)
        Buffer.add_string buf
          (Printf.sprintf
             "%s(let hi_%s = %s in\n%s let rec loop_%s %s = if %s <= hi_%s \
              then begin\n"
             pad v (int_expr ctx l.hi) pad v v v v);
        stmt ctx (depth + 1) buf l.body;
        Buffer.add_string buf
          (Printf.sprintf "%s loop_%s (%s + %d) end in loop_%s (%s));\n" pad
             v v l.step v (int_expr ctx l.lo))
      end
  | If (c, t, e) ->
      Buffer.add_string buf
        (Printf.sprintf "%sif %s then begin\n" pad (cond ctx c));
      stmt ctx (depth + 1) buf t;
      (match e with
      | None -> ()
      | Some e ->
          Buffer.add_string buf (Printf.sprintf "%send else begin\n" pad);
          stmt ctx (depth + 1) buf e);
      Buffer.add_string buf (Printf.sprintf "%send;\n" pad)

(* Deterministic array initialisation shared (by construction) with the
   test oracle: a multiplicative hash of the flat element position mixed
   with a per-array constant computed at generation time. *)
let init_value_formula name =
  let name_hash = Hashtbl.hash name land 0xFFFF in
  Printf.sprintf
    "(float_of_int (((i * 2654435761) + %d) land 0xFFFF) /. 65536.) +. 0.5"
    name_hash

let reference_init name i =
  let name_hash = Hashtbl.hash name land 0xFFFF in
  (float_of_int (((i * 2654435761) + name_hash) land 0xFFFF) /. 65536.0)
  +. 0.5

let program ?(param_overrides = []) ~mode (kernel : Ast.kernel) =
  let ctx =
    {
      kernel;
      dims =
        List.map
          (fun (d : Ast.array_decl) -> (d.array_name, d.dims))
          kernel.arrays;
    }
  in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "(* Generated by altune codegen from kernel %s. *)\n" kernel.kernel_name;
  List.iter
    (fun (name, default) ->
      let v =
        match List.assoc_opt name param_overrides with
        | Some v -> v
        | None -> default
      in
      out "let %s = %d\n" (p_ name) v)
    kernel.params;
  List.iter
    (fun (d : Ast.array_decl) ->
      let size =
        String.concat " * "
          (List.map (fun e -> int_expr ctx e) d.dims)
      in
      out "let %s = Array.make (%s) 0.0\n" (a_ d.array_name) size)
    kernel.arrays;
  List.iter (fun sname -> out "let %s = ref 0.0\n" (s_ sname)) kernel.scalars;
  out "\nlet initialize () =\n";
  if kernel.arrays = [] then out "  ()\n"
  else
    List.iter
      (fun (d : Ast.array_decl) ->
        out "  Array.iteri (fun i _ -> %s.(i) <- %s) %s;\n"
          (a_ d.array_name)
          (init_value_formula d.array_name)
          (a_ d.array_name))
      kernel.arrays;
  List.iter (fun sname -> out "  %s := 0.0;\n" (s_ sname)) kernel.scalars;
  out "  ()\n";
  out "\nlet kernel () =\n";
  let body_buf = Buffer.create 4096 in
  stmt ctx 1 body_buf kernel.body;
  if Buffer.length body_buf = 0 then out "  ()\n"
  else begin
    Buffer.add_buffer buf body_buf;
    out "  ()\n"
  end;
  out "\nlet checksum () =\n";
  out "  let acc = ref 0.0 in\n";
  List.iter
    (fun (d : Ast.array_decl) ->
      out "  Array.iter (fun v -> acc := !acc +. v) %s;\n" (a_ d.array_name))
    kernel.arrays;
  out "  !acc\n";
  (match mode with
  | `Checksum ->
      out
        "\nlet () =\n  initialize ();\n  kernel ();\n  Printf.printf \
         \"%%.17g\\n\" (checksum ())\n"
  | `Time repeats ->
      out "\nlet () =\n";
      out "  initialize ();\n";
      out "  kernel ();\n";
      out "  let times = Array.init %d (fun _ ->\n" (max 1 repeats);
      out "    initialize ();\n";
      out "    let t0 = Unix.gettimeofday () in\n";
      out "    kernel ();\n";
      out "    Unix.gettimeofday () -. t0)\n";
      out "  in\n";
      out "  Array.sort compare times;\n";
      out "  Printf.printf \"%%.9f\\n\" times.(Array.length times / 2)\n");
  Buffer.contents buf

type compiled = { dir : string; exe : string }

let sh dir cmd =
  let log = Filename.concat dir "cmd.log" in
  let full = Printf.sprintf "cd %s && %s > %s 2>&1" (Filename.quote dir) cmd
      (Filename.quote log) in
  let status = Sys.command full in
  let output =
    if Sys.file_exists log then
      In_channel.with_open_text log In_channel.input_all
    else ""
  in
  (status, output)

let build source =
  let dir = Filename.temp_dir "altune_codegen" "" in
  let src = Filename.concat dir "main.ml" in
  let oc = open_out src in
  output_string oc source;
  close_out oc;
  let status, output =
    sh dir "ocamlfind ocamlopt -package unix -linkpkg main.ml -o kernel_exe"
  in
  if status <> 0 then
    failwith (Printf.sprintf "codegen build failed (%d):\n%s" status output);
  { dir; exe = Filename.concat dir "kernel_exe" }

let run c =
  let status, output = sh c.dir (Filename.quote c.exe) in
  if status <> 0 then
    failwith (Printf.sprintf "codegen run failed (%d):\n%s" status output);
  String.trim output

let cleanup c =
  let _, _ = sh c.dir "rm -f main.ml main.cmi main.cmx main.o kernel_exe" in
  (try Sys.remove (Filename.concat c.dir "cmd.log") with Sys_error _ -> ());
  ignore (Sys.command (Printf.sprintf "rmdir %s" (Filename.quote c.dir)))

let expr_to_ocaml e =
  let empty =
    { kernel = { kernel_name = ""; params = []; arrays = []; scalars = [];
                 body = Ast.Seq [] };
      dims = [] }
  in
  int_expr empty e

let checksum ?param_overrides kernel =
  let c = build (program ?param_overrides ~mode:`Checksum kernel) in
  Fun.protect
    ~finally:(fun () -> cleanup c)
    (fun () -> float_of_string (run c))

let time_native ?param_overrides kernel =
  let c = build (program ?param_overrides ~mode:(`Time 5) kernel) in
  Fun.protect
    ~finally:(fun () -> cleanup c)
    (fun () -> float_of_string (run c))
