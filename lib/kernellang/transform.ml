type error =
  | Loop_not_found of string
  | Bad_factor of string * int
  | Not_perfectly_nested of string * string
  | Unsafe_jam of string
  | Name_clash of string

let pp_error ppf = function
  | Loop_not_found x -> Format.fprintf ppf "loop %s not found" x
  | Bad_factor (x, n) -> Format.fprintf ppf "bad factor %d for loop %s" n x
  | Not_perfectly_nested (o, i) ->
      Format.fprintf ppf "loops %s and %s are not perfectly nested" o i
  | Unsafe_jam x ->
      Format.fprintf ppf
        "unroll-and-jam of loop %s refused: writes do not all depend on it" x
  | Name_clash x -> Format.fprintf ppf "generated name %s already in use" x

let error_to_string e = Format.asprintf "%a" pp_error e

exception Fail of error

let used_names (k : Ast.kernel) =
  Ast.loop_indices k.body
  @ List.map fst k.params
  @ k.scalars
  @ List.map (fun (d : Ast.array_decl) -> d.array_name) k.arrays

(* Derive a fresh identifier from [base] and [suffix], appending a counter
   on clash. *)
let fresh_name k base suffix =
  let taken = used_names k in
  let candidate = base ^ suffix in
  if not (List.mem candidate taken) then candidate
  else begin
    let rec go n =
      let c = Printf.sprintf "%s%s%d" base suffix n in
      if List.mem c taken then go (n + 1) else c
    in
    go 1
  end

(* Rewrite the unique loop with index [index], replacing it by [f loop].
   Raises [Fail (Loop_not_found index)] if absent. *)
let rewrite_loop (k : Ast.kernel) index f =
  let found = ref false in
  let rec go (s : Ast.stmt) : Ast.stmt =
    match s with
    | Assign _ -> s
    | Seq ss -> Seq (List.map go ss)
    | For l when l.index = index && not !found ->
        found := true;
        f l
    | For l -> For { l with body = go l.body }
    | If (c, t, e) -> If (c, go t, Option.map go e)
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

(* Alpha-rename every loop bound in [stmt] to a fresh name, so that
   replicating a body (unroll copies, remainder loops) preserves the
   kernel-wide uniqueness of loop indices.  [taken] accumulates names in
   use across all replicas. *)
let freshen_loops taken stmt =
  let fresh base =
    let rec go n =
      let c = Printf.sprintf "%s_c%d" base n in
      if List.mem c !taken then go (n + 1) else c
    in
    let name = go 0 in
    taken := name :: !taken;
    name
  in
  let rec go (s : Ast.stmt) : Ast.stmt =
    match s with
    | Assign _ -> s
    | Seq ss -> Seq (List.map go ss)
    | If (c, t, e) -> If (c, go t, Option.map go e)
    | For l ->
        let name = fresh l.index in
        let body = Ast.subst ~var:l.index ~by:(Ast.Var name) l.body in
        For { l with index = name; body = go body }
  in
  go stmt

let unroll ~index ~factor k =
  wrap (fun () ->
      if factor < 1 then raise (Fail (Bad_factor (index, factor)));
      if factor = 1 then
        (* Identity, but still require the loop to exist. *)
        rewrite_loop k index (fun l -> For l)
      else begin
        let rem_index = fresh_name k index "_r" in
        let taken = ref (rem_index :: used_names k) in
        rewrite_loop k index (fun l ->
            let copies =
              List.init factor (fun c ->
                  if c = 0 then l.body
                  else
                    freshen_loops taken
                      (Ast.subst ~var:l.index
                         ~by:(add (Ast.Var l.index) (int_lit (c * l.step)))
                         l.body))
            in
            let main_trips = idiv (trip_count l) (int_lit factor) in
            let main_hi =
              add l.lo
                (mul
                   (sub (mul main_trips (int_lit factor)) (int_lit 1))
                   (int_lit l.step))
            in
            let rem_lo =
              add l.lo
                (mul (mul main_trips (int_lit factor)) (int_lit l.step))
            in
            let main_loop =
              Ast.For
                {
                  index = l.index;
                  lo = l.lo;
                  hi = main_hi;
                  step = l.step * factor;
                  body = Ast.seq copies;
                }
            in
            let remainder =
              Ast.For
                {
                  index = rem_index;
                  lo = rem_lo;
                  hi = l.hi;
                  step = l.step;
                  body =
                    freshen_loops taken
                      (Ast.subst ~var:l.index ~by:(Ast.Var rem_index) l.body);
                }
            in
            Ast.seq [ main_loop; remainder ])
      end)

let strip_mine ~index ~tile ~tile_index k =
  wrap (fun () ->
      if tile < 1 then raise (Fail (Bad_factor (index, tile)));
      if List.mem tile_index (used_names k) then
        raise (Fail (Name_clash tile_index));
      rewrite_loop k index (fun l ->
          let tile_step = l.step * tile in
          let inner_hi =
            emin
              (add (Ast.Var tile_index) (int_lit ((tile - 1) * l.step)))
              l.hi
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
            }))

(* The inner loop must be the entire body of the outer one. *)
let immediate_inner (l : Ast.loop) =
  match l.body with
  | For inner -> Some inner
  | Seq [ For inner ] -> Some inner
  | Assign _ | Seq _ | If _ -> None

let interchange ~outer ~inner k =
  wrap (fun () ->
      if not (Dependence.interchange_legal k ~outer ~inner) then
        raise (Fail (Unsafe_jam outer));
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
  let strip acc (index, tile) =
    Result.bind acc (fun k ->
        strip_mine ~index ~tile ~tile_index:(fresh_name k index "_t") k)
  in
  let stripped = List.fold_left strip (Ok k) (List.rev to_tile) in
  Result.bind stripped (fun k ->
      (* After strip-mining, the nest looks like
         i1_t i1 i2_t i2 ... ; point loops of earlier dims must sink below
         tile loops of later dims.  Sort by interchanging adjacent pairs
         (tile loops keep their relative order, as do point loops). *)
      let point_indices = List.map fst to_tile in
      let tile_indices =
        List.filter_map
          (fun (index, tile) ->
            if tile > 1 then
              (* The fresh name chosen during stripping: recover it by
                 looking for "<index>_t" variants present in the kernel. *)
              List.find_opt
                (fun n ->
                  String.length n > String.length index
                  && String.sub n 0 (String.length index + 2)
                     = index ^ "_t")
                (Ast.loop_indices k.body)
            else None)
          spec
      in
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
        let rem_index = fresh_name k index "_j" in
        let taken = ref (rem_index :: used_names k) in
        rewrite_loop k index (fun l ->
            match immediate_inner l with
            | None -> raise (Fail (Not_perfectly_nested (index, "<body>")))
            | Some inner ->
                if
                  List.mem l.index (Ast.free_vars inner.lo)
                  || List.mem l.index (Ast.free_vars inner.hi)
                then raise (Fail (Not_perfectly_nested (index, inner.index)));
                if not jam_ok then raise (Fail (Unsafe_jam index));
                let jammed_body =
                  Ast.seq
                    (List.init factor (fun c ->
                         if c = 0 then inner.body
                         else
                           freshen_loops taken
                             (Ast.subst ~var:l.index
                                ~by:
                                  (add (Ast.Var l.index)
                                     (int_lit (c * l.step)))
                                inner.body)))
                in
                let main_trips = idiv (trip_count l) (int_lit factor) in
                let main_hi =
                  add l.lo
                    (mul
                       (sub (mul main_trips (int_lit factor)) (int_lit 1))
                       (int_lit l.step))
                in
                let rem_lo =
                  add l.lo
                    (mul (mul main_trips (int_lit factor)) (int_lit l.step))
                in
                let main_loop =
                  Ast.For
                    {
                      index = l.index;
                      lo = l.lo;
                      hi = main_hi;
                      step = l.step * factor;
                      body = Ast.For { inner with body = jammed_body };
                    }
                in
                let remainder =
                  Ast.For
                    {
                      index = rem_index;
                      lo = rem_lo;
                      hi = l.hi;
                      step = l.step;
                      body =
                        freshen_loops taken
                          (Ast.subst ~var:l.index ~by:(Ast.Var rem_index)
                             l.body);
                    }
                in
                Ast.seq [ main_loop; remainder ])
      end)

(* Skewing: inner' = inner + factor * outer.  The loop runs over skewed
   values while the body keeps seeing the original index, recovered as
   inner' - factor * outer.  Iteration order is untouched, so this is
   always exact. *)
let skew ~outer ~inner ~factor k =
  wrap (fun () ->
      rewrite_loop k outer (fun l ->
          match immediate_inner l with
          | Some il when il.index = inner ->
              let shift = mul (int_lit factor) (Ast.Var l.index) in
              let unskewed = sub (Ast.Var il.index) shift in
              let body = Ast.subst ~var:il.index ~by:unskewed il.body in
              Ast.For
                {
                  l with
                  body =
                    Ast.For
                      {
                        il with
                        lo = add il.lo shift;
                        hi = add il.hi shift;
                        body;
                      };
                }
          | Some il -> raise (Fail (Not_perfectly_nested (outer, il.index)))
          | None -> raise (Fail (Not_perfectly_nested (outer, inner)))))

let reverse ~index k =
  wrap (fun () ->
      if Dependence.carried_by k index <> [] then
        raise (Fail (Unsafe_jam index));
      rewrite_loop k index (fun l ->
          if l.step <> 1 then raise (Fail (Bad_factor (index, l.step)));
          let mirrored = sub (add l.lo l.hi) (Ast.Var l.index) in
          Ast.For { l with body = Ast.subst ~var:l.index ~by:mirrored l.body }))

(* Structural helper: rewrite the (unique) Seq containing For(first)
   immediately followed by For(second). *)
let rewrite_adjacent (k : Ast.kernel) first second f =
  let found = ref false in
  let rec scan = function
    | Ast.For l1 :: Ast.For l2 :: rest
      when l1.index = first && l2.index = second && not !found ->
        found := true;
        f l1 l2 :: List.map go rest
    | s :: rest -> go s :: scan rest
    | [] -> []
  and go (s : Ast.stmt) : Ast.stmt =
    match s with
    | Assign _ -> s
    | Seq ss -> Ast.seq (scan ss)
    | For l -> For { l with body = go l.body }
    | If (c, t, e) -> If (c, go t, Option.map go e)
  in
  let body = go k.body in
  if not !found then raise (Fail (Loop_not_found first));
  { k with body = Ast.seq [ body ] }

let fuse ~first ~second k =
  wrap (fun () ->
      if not (Dependence.fusion_legal k ~first ~second) then
        raise (Fail (Unsafe_jam first));
      rewrite_adjacent k first second (fun l1 l2 ->
          let compatible =
            Simplify.expr l1.lo = Simplify.expr l2.lo
            && Simplify.expr l1.hi = Simplify.expr l2.hi
            && l1.step = l2.step
          in
          if not compatible then
            raise (Fail (Not_perfectly_nested (first, second)));
          let renamed =
            Ast.subst ~var:l2.index ~by:(Ast.Var l1.index) l2.body
          in
          Ast.For { l1 with body = Ast.seq [ l1.body; renamed ] }))

let distribute ~index k =
  wrap (fun () ->
      if not (Dependence.distribution_legal k index) then
        raise (Fail (Unsafe_jam index));
      let taken = ref (used_names k) in
      rewrite_loop k index (fun l ->
          match l.body with
          | Seq (_ :: _ :: _ as stmts) ->
              Ast.seq
                (List.mapi
                   (fun i body ->
                     if i = 0 then Ast.For { l with body }
                     else begin
                       (* Later copies need fresh loop indices to keep the
                          kernel-wide uniqueness invariant. *)
                       let rec fresh n =
                         let c = Printf.sprintf "%s_d%d" l.index n in
                         if List.mem c !taken then fresh (n + 1) else c
                       in
                       let name = fresh i in
                       taken := name :: !taken;
                       let body =
                         freshen_loops taken
                           (Ast.subst ~var:l.index ~by:(Ast.Var name) body)
                       in
                       Ast.For { l with index = name; body }
                     end)
                   stmts)
          | Assign _ | For _ | If _ | Seq _ ->
              (* Nothing to split. *)
              For l))
