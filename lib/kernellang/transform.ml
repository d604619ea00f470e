type error =
  | Loop_not_found of string
  | Bad_factor of string * int
  | Not_perfectly_nested of string * string
  | Unsafe_jam of string
  | Unsafe_interchange of string * string
  | Name_clash of string

let pp_error ppf = function
  | Loop_not_found x -> Format.fprintf ppf "loop %s not found" x
  | Bad_factor (x, n) -> Format.fprintf ppf "bad factor %d for loop %s" n x
  | Not_perfectly_nested (o, i) ->
      Format.fprintf ppf "loops %s and %s are not perfectly nested" o i
  | Unsafe_jam x ->
      Format.fprintf ppf
        "unroll-and-jam of loop %s refused: it would reverse a dependence" x
  | Unsafe_interchange (o, i) ->
      Format.fprintf ppf
        "interchange of loops %s and %s refused: it would reverse a \
         dependence"
        o i
  | Name_clash x -> Format.fprintf ppf "generated name %s already in use" x

let error_to_string e = Format.asprintf "%a" pp_error e

exception Fail of error

(* [List.map f l] in order, but [l] itself when [f] returns every
   element physically unchanged. *)
let rec map_shared f l =
  match l with
  | [] -> l
  | x :: rest ->
      let x' = f x in
      let rest' = map_shared f rest in
      if x' == x && rest' == rest then l else x' :: rest'

(* Rewrite the unique loop with index [index], replacing it by [f loop];
   the statements off the path to it are shared, not rebuilt.  Raises
   [Fail (Loop_not_found index)] if absent. *)
let rewrite_loop (k : Ast.kernel) index f =
  let found = ref false in
  let rec go (s : Ast.stmt) : Ast.stmt =
    match s with
    | Assign _ -> s
    | Seq ss ->
        let ss' = map_shared go ss in
        if ss' == ss then s else Seq ss'
    | For l when l.index = index && not !found ->
        found := true;
        f l
    | For l ->
        let body = go l.body in
        if body == l.body then s else For { l with body }
    | If (c, t, e) ->
        let t' = go t in
        let e' =
          match e with
          | None -> e
          | Some b ->
              let b' = go b in
              if b' == b then e else Some b'
        in
        if t' == t && e' == e then s else If (c, t', e')
  in
  let body = go k.body in
  if not !found then raise (Fail (Loop_not_found index));
  { k with body = Ast.seq [ body ] }

let int_lit n = Ast.Int_lit n
let add a b = Ast.Binop (Add, a, b)
let sub a b = Ast.Binop (Sub, a, b)
let mul a b = Ast.Binop (Mul, a, b)
let idiv a b = Ast.Binop (Idiv, a, b)
let emin a b = Ast.Binop (Min, a, b)

(* Trip count of a loop: ((hi - lo) %/ step) + 1 (negative if empty, which
   downstream arithmetic tolerates because the main loop bound then falls
   below lo). *)
let trip_count (l : Ast.loop) =
  add (idiv (sub l.hi l.lo) (int_lit l.step)) (int_lit 1)

let wrap f = match f () with k -> Ok k | exception Fail e -> Error e

(* The names in use while a kernel is transformed: every name of the
   kernel (loop indices, parameters, scalars, arrays) and every name
   handed out so far, each with the lowest [n] that [copy_name] has not
   yet ruled out for [<name>_c<n>].  Every generated name comes from
   here. *)
let names_of (k : Ast.kernel) =
  let taken = Hashtbl.create 64 in
  let take n = Hashtbl.replace taken n 0 in
  List.iter take (Ast.loop_indices k.body);
  List.iter (fun (p, _) -> take p) k.params;
  List.iter take k.scalars;
  List.iter (fun (d : Ast.array_decl) -> take d.array_name) k.arrays;
  taken

(* The first free name of [<base><suffix>], [<base><suffix>1],
   [<base><suffix>2], ..., now taken. *)
let fresh_name names base suffix =
  let rec go n =
    let c = if n = 0 then base ^ suffix else base ^ suffix ^ string_of_int n in
    if Hashtbl.mem names c then go (n + 1)
    else begin
      Hashtbl.replace names c 0;
      c
    end
  in
  go 0

(* The lowest free [<base>_c<n>], now taken.  Names are only ever added,
   so the search resumes where the last one for [base] stopped. *)
let copy_name names base =
  let rec go n =
    let c = base ^ "_c" ^ string_of_int n in
    if Hashtbl.mem names c then go (n + 1)
    else begin
      Hashtbl.replace names base (n + 1);
      Hashtbl.replace names c 0;
      c
    end
  in
  go (Option.value ~default:0 (Hashtbl.find_opt names base))

(* A copy of [stmt] with [var] replaced by [by] and every loop in it
   renamed to a fresh [<index>_c<n>], so that replicating a body (unroll
   copies, remainder loops) preserves the kernel-wide uniqueness of loop
   indices.  One pass, with the substitutions in scope kept innermost
   first: a loop's bounds see the enclosing ones, its body its own new
   name as well.  Names are allocated in pre-order.  A subtree that no
   substitution reaches is shared with [stmt], not rebuilt. *)
let copy names ~var ~by stmt =
  let rec lookup e x = function
    | [] -> e
    | (v, by) :: rest -> if String.equal v x then by else lookup e x rest
  in
  let rec expr env (e : Ast.expr) : Ast.expr =
    match e with
    | Int_lit _ | Float_lit _ -> e
    | Var x -> lookup e x env
    | Index (a, subs) ->
        let subs' = map_shared (expr env) subs in
        if subs' == subs then e else Index (a, subs')
    | Binop (op, a, b) ->
        let a' = expr env a in
        let b' = expr env b in
        if a' == a && b' == b then e else Binop (op, a', b')
    | Neg a ->
        let a' = expr env a in
        if a' == a then e else Neg a'
    | Sqrt a ->
        let a' = expr env a in
        if a' == a then e else Sqrt a'
  in
  let rec cond env (c : Ast.cond) : Ast.cond =
    match c with
    | Cmp (op, a, b) ->
        let a' = expr env a in
        let b' = expr env b in
        if a' == a && b' == b then c else Cmp (op, a', b')
    | And (a, b) ->
        let a' = cond env a in
        let b' = cond env b in
        if a' == a && b' == b then c else And (a', b')
    | Or (a, b) ->
        let a' = cond env a in
        let b' = cond env b in
        if a' == a && b' == b then c else Or (a', b')
    | Not a ->
        let a' = cond env a in
        if a' == a then c else Not a'
  in
  let rec go env (s : Ast.stmt) : Ast.stmt =
    match s with
    | Assign (lhs, e) ->
        let lhs' =
          match lhs with
          | Scalar_lhs _ -> lhs
          | Array_lhs (a, subs) ->
              let subs' = map_shared (expr env) subs in
              if subs' == subs then lhs else Array_lhs (a, subs')
        in
        let e' = expr env e in
        if lhs' == lhs && e' == e then s else Assign (lhs', e')
    | Seq ss ->
        let ss' = map_shared (go env) ss in
        if ss' == ss then s else Seq ss'
    | If (c, t, e) ->
        let c' = cond env c in
        let t' = go env t in
        let e' =
          match e with
          | None -> e
          | Some b ->
              let b' = go env b in
              if b' == b then e else Some b'
        in
        if c' == c && t' == t && e' == e then s else If (c', t', e')
    | For l ->
        let name = copy_name names l.index in
        For
          {
            l with
            index = name;
            lo = expr env l.lo;
            hi = expr env l.hi;
            body = go ((l.index, Ast.Var name) :: env) l.body;
          }
  in
  go [ (var, by) ] stmt

(* Loop [l] unrolled by [factor]: a main loop over whole groups of
   [factor] iterations, whose body [main_body] builds from [factor]
   copies of [unit] (copy [c] shifted by [c] iterations), then a
   remainder loop [rem_index] over the leftover iterations, on a copy of
   [l]'s body.  [unroll] copies [l]'s whole body; [unroll_and_jam] copies
   its inner loop's body and jams the copies into that loop.  Copies are
   named in order: the main loop's, then the remainder's. *)
let unrolled names (l : Ast.loop) ~factor ~rem_index ~unit ~main_body =
  let copies =
    List.init factor (fun c ->
        if c = 0 then unit
        else
          copy names ~var:l.index
            ~by:(add (Ast.Var l.index) (int_lit (c * l.step)))
            unit)
  in
  let main_trips = idiv (trip_count l) (int_lit factor) in
  let main_hi =
    add l.lo
      (mul (sub (mul main_trips (int_lit factor)) (int_lit 1)) (int_lit l.step))
  in
  let rem_lo =
    add l.lo (mul (mul main_trips (int_lit factor)) (int_lit l.step))
  in
  let main_loop =
    Ast.For
      {
        index = l.index;
        lo = l.lo;
        hi = main_hi;
        step = l.step * factor;
        body = main_body (Ast.seq copies);
      }
  in
  let remainder =
    Ast.For
      {
        index = rem_index;
        lo = rem_lo;
        hi = l.hi;
        step = l.step;
        body = copy names ~var:l.index ~by:(Ast.Var rem_index) l.body;
      }
  in
  Ast.seq [ main_loop; remainder ]

let unroll ~index ~factor k =
  wrap (fun () ->
      if factor < 1 then raise (Fail (Bad_factor (index, factor)));
      if factor = 1 then
        (* Identity, but still require the loop to exist. *)
        rewrite_loop k index (fun l -> For l)
      else begin
        let names = names_of k in
        let rem_index = fresh_name names index "_r" in
        rewrite_loop k index (fun l ->
            unrolled names l ~factor ~rem_index ~unit:l.body
              ~main_body:Fun.id)
      end)

(* Strip-mine loop [index] of [k] under the fresh name [tile_index]. *)
let strip ~index ~tile ~tile_index k =
  rewrite_loop k index (fun l ->
      let tile_step = l.step * tile in
      let inner_hi =
        emin (add (Ast.Var tile_index) (int_lit ((tile - 1) * l.step))) l.hi
      in
      Ast.For
        {
          index = tile_index;
          lo = l.lo;
          hi = l.hi;
          step = tile_step;
          body =
            Ast.For
              {
                index = l.index;
                lo = Ast.Var tile_index;
                hi = inner_hi;
                step = l.step;
                body = l.body;
              };
        })

let strip_mine ~index ~tile ~tile_index k =
  wrap (fun () ->
      if tile < 1 then raise (Fail (Bad_factor (index, tile)));
      if Hashtbl.mem (names_of k) tile_index then
        raise (Fail (Name_clash tile_index));
      strip ~index ~tile ~tile_index k)

(* The inner loop must be the entire body of the outer one. *)
let immediate_inner (l : Ast.loop) =
  match l.body with
  | For inner -> Some inner
  | Seq [ For inner ] -> Some inner
  | Assign _ | Seq _ | If _ -> None

let interchange ~outer ~inner k =
  wrap (fun () ->
      if not (Dependence.interchange_legal k ~outer ~inner) then
        raise (Fail (Unsafe_interchange (outer, inner)));
      rewrite_loop k outer (fun l ->
          match immediate_inner l with
          | Some il when il.index = inner ->
              let bounds_independent =
                (not (List.mem outer (Ast.free_vars il.lo)))
                && not (List.mem outer (Ast.free_vars il.hi))
              in
              if not bounds_independent then
                raise (Fail (Not_perfectly_nested (outer, inner)));
              Ast.For
                {
                  il with
                  body = Ast.For { l with body = il.body };
                }
          | Some il -> raise (Fail (Not_perfectly_nested (outer, il.index)))
          | None -> raise (Fail (Not_perfectly_nested (outer, inner)))))

let tile_nest spec k =
  (* Strip-mine innermost-first so outer indices remain addressable, then
     bubble every tile loop above every point loop by repeated
     interchange. *)
  let to_tile = List.filter (fun (_, t) -> t > 1) spec in
  (* Each strip-mine also returns the tile-loop name it chose. *)
  let names = names_of k in
  let stripped =
    wrap (fun () ->
        List.fold_left
          (fun (k, tile_indices) (index, tile) ->
            let tile_index = fresh_name names index "_t" in
            (strip ~index ~tile ~tile_index k, tile_index :: tile_indices))
          (k, []) (List.rev to_tile))
  in
  Result.bind stripped (fun (k, tile_indices) ->
      (* After strip-mining, the nest looks like
         i1_t i1 i2_t i2 ... ; point loops of earlier dims must sink below
         tile loops of later dims.  Sort by interchanging adjacent pairs
         (tile loops keep their relative order, as do point loops). *)
      let point_indices = List.map fst to_tile in
      let rec sink k =
        (* Find a point loop immediately containing a tile loop and swap. *)
        let rec find_violation (s : Ast.stmt) =
          match s with
          | Assign _ -> None
          | Seq ss -> List.find_map find_violation ss
          | If (_, t, e) -> (
              match find_violation t with
              | Some _ as r -> r
              | None -> Option.bind e find_violation)
          | For l -> (
              match immediate_inner l with
              | Some il
                when List.mem l.index point_indices
                     && List.mem il.index tile_indices ->
                  Some (l.index, il.index)
              | _ -> find_violation l.body)
        in
        match find_violation k.Ast.body with
        | None -> Ok k
        | Some (outer, inner) ->
            Result.bind (interchange ~outer ~inner k) sink
      in
      sink k)

let unroll_and_jam ~index ~factor k =
  wrap (fun () ->
      if factor < 1 then raise (Fail (Bad_factor (index, factor)));
      if factor = 1 then rewrite_loop k index (fun l -> For l)
      else begin
        (* Dependence-based legality: jamming sinks [index] innermost, so
           it must not reverse any dependence. *)
        let jam_ok = Dependence.jam_legal k index in
        let names = names_of k in
        let rem_index = fresh_name names index "_j" in
        rewrite_loop k index (fun l ->
            match immediate_inner l with
            | None -> raise (Fail (Not_perfectly_nested (index, "<body>")))
            | Some inner ->
                if
                  List.mem l.index (Ast.free_vars inner.lo)
                  || List.mem l.index (Ast.free_vars inner.hi)
                then raise (Fail (Not_perfectly_nested (index, inner.index)));
                if not jam_ok then raise (Fail (Unsafe_jam index));
                unrolled names l ~factor ~rem_index ~unit:inner.body
                  ~main_body:(fun body -> Ast.For { inner with body }))
      end)
