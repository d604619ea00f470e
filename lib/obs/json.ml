type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- Writing ----------------------------------------------------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Shortest of %.9g / %.12g / %.17g that round-trips, so trace durations
   stay readable without losing manifest exactness. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let try_fmt fmt =
      let s = Printf.sprintf fmt f in
      if float_of_string s = f then Some s else None
    in
    let s =
      match try_fmt "%.9g" with
      | Some s -> s
      | None -> (
          match try_fmt "%.12g" with
          | Some s -> s
          | None -> Printf.sprintf "%.17g" f)
    in
    (* Ensure the token re-parses as a float, not an int. *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s
    else s ^ ".0"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- Parsing ----------------------------------------------------------- *)

exception Parse_error of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > n then fail "truncated \\u escape";
                   let code =
                     try int_of_string ("0x" ^ String.sub s !pos 4)
                     with _ -> fail "bad \\u escape"
                   in
                   pos := !pos + 4;
                   (* Encode the code point as UTF-8; our own writer only
                      emits \u for control characters, so this is mostly
                      for reading third-party lines. *)
                   if code < 0x80 then Buffer.add_char buf (Char.chr code)
                   else if code < 0x800 then begin
                     Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
                   else begin
                     Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                     Buffer.add_char buf
                       (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
               | c -> fail (Printf.sprintf "bad escape %C" c));
            loop ()
        | c -> Buffer.add_char buf c; advance (); loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          (* Integer overflow: fall back to float. *)
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let pair () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let items = ref [ pair () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := pair () :: !items;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !items)
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, msg) ->
      Error (Printf.sprintf "JSON error at offset %d: %s" p msg)

(* --- Accessors --------------------------------------------------------- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None

(* --- Field readers ----------------------------------------------------- *)

type 'a kind = { name : string; read : t -> 'a option }

let string = { name = "string"; read = to_string_opt }
let int = { name = "integer"; read = to_int_opt }
let number = { name = "number"; read = to_float_opt }
let bool = { name = "boolean"; read = to_bool_opt }

let req key kind j =
  match Option.bind (member key j) kind.read with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-%s %S field" kind.name key)

let opt key kind j =
  match member key j with
  | None | Some Null -> Ok None
  | Some v -> (
      match kind.read v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "non-%s %S field" kind.name key))

let item kind v =
  match kind.read v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "non-%s value" kind.name)

let nested key read v = Result.map_error (Printf.sprintf "%s: %s" key) (read v)

let obj key read j =
  match member key j with
  | Some (Obj _ as o) -> nested key read o
  | _ -> Error (Printf.sprintf "missing or non-object %S field" key)

let opt_obj key read j =
  match member key j with
  | None | Some Null -> Ok None
  | Some (Obj _ as o) -> Result.map Option.some (nested key read o)
  | Some _ -> Error (Printf.sprintf "non-object %S field" key)

let list key read j =
  match member key j with
  | Some (List items) ->
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | v :: rest -> (
            match read v with
            | Ok x -> go (i + 1) (x :: acc) rest
            | Error e -> Error (Printf.sprintf "%s[%d]: %s" key i e))
      in
      go 0 [] items
  | _ -> Error (Printf.sprintf "missing or non-list %S field" key)
