type direction = Lt | Eq | Gt | Star
type kind = Flow | Anti | Output

type dependence = {
  kind : kind;
  array : string;
  directions : (string * direction) list;
}

let direction_string = function
  | Lt -> "<"
  | Eq -> "="
  | Gt -> ">"
  | Star -> "*"

let kind_string = function Flow -> "flow" | Anti -> "anti" | Output -> "output"

let pp_dependence ppf d =
  Format.fprintf ppf "%s dependence on %s (%s)" (kind_string d.kind) d.array
    (String.concat ", "
       (List.map
          (fun (l, dir) -> l ^ ":" ^ direction_string dir)
          d.directions))

(* --- Access collection --- *)

(* Where an access sits: its enclosing loop indices, outermost first,
   and the strides among them.  A loop has a stride [s > 1] when every
   value its index takes over the whole run is congruent modulo [s]: its
   step is [s] and its lower bound is the same modulo [s] each time the
   loop starts — it mentions no enclosing index, or it is an enclosing
   index whose own stride is a multiple of [s] (the strip-mined point
   loop [for j = jt to ...] under [for jt = 0 to ... step 16], with [j]'s
   step 2 after an unroll).  The distance between two iterations of such
   a loop is then a multiple of [s]. *)
type nest = { loops : string list; strides : (string * int) list }

let stride_of nest (l : Ast.loop) =
  let aligned =
    match l.lo with
    | Var u when List.mem u nest.loops -> (
        match List.assoc_opt u nest.strides with
        | Some s -> s mod l.step = 0
        | None -> false)
    | lo ->
        not (List.exists (fun v -> List.mem v nest.loops) (Ast.free_vars lo))
  in
  if l.step > 1 && aligned then [ (l.index, l.step) ] else []

type access = {
  array : string;
  is_write : bool;
  subscripts : Ast.expr list;
  loops : string list;  (* enclosing loop indices, outermost first *)
  strides : (string * int) list;  (* see [nest] *)
  site : int;  (* textual order of the statement *)
}

let collect_stmt ~loops:loops0 (stmt0 : Ast.stmt) =
  let counter = ref 0 in
  let accesses = ref [] in
  let scalars_written = ref [] in
  let add (nest : nest) a is_write subs =
    accesses :=
      {
        array = a;
        is_write;
        subscripts = subs;
        loops = nest.loops;
        strides = nest.strides;
        site = !counter;
      }
      :: !accesses
  in
  let rec exprs_reads nest e =
    match (e : Ast.expr) with
    | Int_lit _ | Float_lit _ | Var _ -> ()
    | Index (a, subs) ->
        add nest a false subs;
        List.iter (exprs_reads nest) subs
    | Binop (_, x, y) ->
        exprs_reads nest x;
        exprs_reads nest y
    | Neg x | Sqrt x -> exprs_reads nest x
  in
  let rec cond_reads nest c =
    match (c : Ast.cond) with
    | Cmp (_, a, b) ->
        exprs_reads nest a;
        exprs_reads nest b
    | And (a, b) | Or (a, b) ->
        cond_reads nest a;
        cond_reads nest b
    | Not a -> cond_reads nest a
  in
  let rec go (nest : nest) (s : Ast.stmt) =
    match s with
    | Assign (lhs, rhs) ->
        incr counter;
        (match lhs with
        | Scalar_lhs x ->
            if not (List.mem x !scalars_written) then
              scalars_written := x :: !scalars_written
        | Array_lhs (a, subs) ->
            add nest a true subs;
            List.iter (exprs_reads nest) subs);
        exprs_reads nest rhs
    | Seq ss -> List.iter (go nest) ss
    | For l ->
        go
          ({
             loops = nest.loops @ [ l.index ];
             strides = nest.strides @ stride_of nest l;
           }
            : nest)
          l.body
    | If (c, t, e) ->
        cond_reads nest c;
        go nest t;
        Option.iter (go nest) e
  in
  go ({ loops = loops0; strides = [] } : nest) stmt0;
  (List.rev !accesses, !scalars_written)

let collect_accesses (k : Ast.kernel) = collect_stmt ~loops:[] k.body

(* --- Affine subscript views --- *)

(* A subscript as [coeffs . indices + constant]; [None] when not affine in
   the loop indices (with parameters treated as opaque but constant, which
   keeps e.g. [i * N] non-affine only if [N] is itself an index). *)
type affine = { coeffs : (string * int) list; constant : int }

let rec affine_of ~loop_indices (e : Ast.expr) : affine option =
  match e with
  | Int_lit n -> Some { coeffs = []; constant = n }
  | Var x ->
      if List.mem x loop_indices then
        Some { coeffs = [ (x, 1) ]; constant = 0 }
      else None (* parameter or scalar: opaque *)
  | Neg a ->
      Option.map
        (fun { coeffs; constant } ->
          {
            coeffs = List.map (fun (v, c) -> (v, -c)) coeffs;
            constant = -constant;
          })
        (affine_of ~loop_indices a)
  | Binop (Add, a, b) -> combine ~loop_indices a b ( + )
  | Binop (Sub, a, b) -> combine ~loop_indices a b ( - )
  | Binop (Mul, Int_lit n, b) -> scale ~loop_indices n b
  | Binop (Mul, a, Int_lit n) -> scale ~loop_indices n a
  | Binop ((Mul | Div | Idiv | Mod | Min | Max), _, _)
  | Index _ | Float_lit _ | Sqrt _ ->
      None

and combine ~loop_indices a b op =
  match (affine_of ~loop_indices a, affine_of ~loop_indices b) with
  | Some x, Some y ->
      let merged =
        List.fold_left
          (fun acc (v, c) ->
            match List.assoc_opt v acc with
            | Some c0 -> (v, op c0 c) :: List.remove_assoc v acc
            | None -> (v, op 0 c) :: acc)
          x.coeffs y.coeffs
      in
      Some
        {
          coeffs = List.filter (fun (_, c) -> c <> 0) merged;
          constant = op x.constant y.constant;
        }
  | _ -> None

and scale ~loop_indices n e =
  Option.map
    (fun { coeffs; constant } ->
      {
        coeffs = List.map (fun (v, c) -> (v, n * c)) coeffs;
        constant = n * constant;
      })
    (affine_of ~loop_indices e)

let affine_view ~loop_indices e =
  Option.map
    (fun { coeffs; constant } -> (coeffs, constant))
    (affine_of ~loop_indices e)

(* --- Per-dimension dependence tests --- *)

(* What one subscript pair tells us.  [Exact (coeffs, delta)] is a linear
   constraint over iteration-distance variables: sum_v c_v * d_v = delta
   (the equal-coefficient case, which covers ZIV, strong SIV, and the
   delta-test MIV that loop skewing produces).  [Vague vars] carries no
   usable relation for those variables. *)
type dim_info =
  | Independent
  | Unknown
  | Exact of (string * int) list * int
  | Vague of string list

let test_dimension ~loop_indices s1 s2 =
  match (affine_of ~loop_indices s1, affine_of ~loop_indices s2) with
  | None, _ | _, None -> Unknown
  | Some a1, Some a2 ->
      let vars =
        List.sort_uniq compare
          (List.map fst a1.coeffs @ List.map fst a2.coeffs)
      in
      let coeff side v = Option.value ~default:0 (List.assoc_opt v side) in
      let equal_coeffs =
        List.for_all (fun v -> coeff a1.coeffs v = coeff a2.coeffs v) vars
      in
      if equal_coeffs then begin
        (* src: sum c_v I_v + k1 = sink: sum c_v J_v + k2, with
           J = I + d:  sum c_v d_v = k1 - k2. *)
        let delta = a1.constant - a2.constant in
        let coeffs =
          List.filter_map
            (fun v ->
              let c = coeff a1.coeffs v in
              if c = 0 then None else Some (v, c))
            vars
        in
        match coeffs with
        | [] -> if delta = 0 then Exact ([], 0) else Independent
        | _ -> Exact (coeffs, delta)
      end
      else Vague vars

(* Solve the collected constraints: propagate exactly-known distances
   through linear constraints until fixpoint.  Returns [None] when the
   system is infeasible (no dependence), otherwise the per-variable
   direction for every common loop.  [stride v] is the stride of loop
   [v] (1 when unknown): a distance that is not a multiple of it is
   infeasible. *)
let solve_dimensions ~stride common dims =
  let known : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let vague : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let constraints = ref [] in
  let infeasible = ref false in
  let learn v d =
    (* Two iterations of a strided loop lie a multiple of its stride
       apart. *)
    if d mod stride v <> 0 then infeasible := true
    else
      match Hashtbl.find_opt known v with
      | Some d0 -> if d0 <> d then infeasible := true
      | None -> Hashtbl.replace known v d
  in
  List.iter
    (fun dim ->
      match dim with
      | Independent -> infeasible := true
      | Unknown -> ()
      | Vague vars -> List.iter (fun v -> Hashtbl.replace vague v ()) vars
      | Exact ([], delta) -> if delta <> 0 then infeasible := true
      | Exact ([ (v, c) ], delta) ->
          if delta mod c <> 0 then infeasible := true
          else learn v (delta / c)
      | Exact (coeffs, delta) -> constraints := (coeffs, delta) :: !constraints)
    dims;
  let progress = ref true in
  while !progress && not !infeasible do
    progress := false;
    constraints :=
      List.filter_map
        (fun (coeffs, delta) ->
          let unknowns, resolved =
            List.partition
              (fun (v, _) -> not (Hashtbl.mem known v))
              coeffs
          in
          let residual =
            List.fold_left
              (fun acc (v, c) -> acc - (c * Hashtbl.find known v))
              delta resolved
          in
          match unknowns with
          | [] ->
              if residual <> 0 then infeasible := true;
              progress := true;
              None
          | [ (v, c) ] ->
              if residual mod c <> 0 then infeasible := true
              else learn v (residual / c);
              progress := true;
              None
          | _ :: _ :: _ -> Some (unknowns, residual))
        !constraints
  done;
  if !infeasible then None
  else begin
    (* Variables still inside unsolved multi-var constraints are
       unconstrained for our purposes. *)
    List.iter
      (fun (coeffs, _) ->
        List.iter (fun (v, _) -> Hashtbl.replace vague v ()) coeffs)
      !constraints;
    Some
      (List.map
         (fun v ->
           match Hashtbl.find_opt known v with
           | Some d when d > 0 -> (v, Lt)
           | Some d when d < 0 -> (v, Gt)
           | Some _ -> (v, Eq)
           | None -> (v, Star))
         common)
  end

(* --- Building dependences --- *)

let directions_for ~loop_indices (a1 : access) (a2 : access) =
  let common = List.filter (fun l -> List.mem l a2.loops) a1.loops in
  if List.length a1.subscripts <> List.length a2.subscripts then
    Some (List.map (fun l -> (l, Star)) common)
  else begin
    let dims =
      List.map2
        (fun s1 s2 -> test_dimension ~loop_indices s1 s2)
        a1.subscripts a2.subscripts
    in
    (* Loop names are unique within a kernel, so both accesses see the
       same stride for a common loop; insist on it anyway. *)
    let stride v =
      match (List.assoc_opt v a1.strides, List.assoc_opt v a2.strides) with
      | Some s1, Some s2 when s1 = s2 -> s1
      | _ -> 1
    in
    solve_dimensions ~stride common dims
  end

(* Keep loop order (outermost first) in the direction vector. *)
let order_directions loops dirs =
  List.filter_map
    (fun l -> Option.map (fun d -> (l, d)) (List.assoc_opt l dirs))
    loops

let flip_direction = function Lt -> Gt | Gt -> Lt | Eq -> Eq | Star -> Star

(* Normalize to lexicographically non-negative: if the leading definite
   direction is Gt, flip the vector (and the kind's source/sink roles). *)
let normalize kind dirs =
  let rec leading = function
    | [] -> Eq
    | (_, Eq) :: rest -> leading rest
    | (_, d) :: _ -> d
  in
  match leading dirs with
  | Gt ->
      let kind' =
        match kind with Flow -> Anti | Anti -> Flow | Output -> Output
      in
      (kind', List.map (fun (l, d) -> (l, flip_direction d)) dirs)
  | Lt | Eq | Star -> (kind, dirs)

(* Map each loop index to the index variable its lower bound equals, if
   any: the strip-mine pattern [for i = i_t to min(i_t + T - 1, hi)].
   An [Eq] direction on the point loop then forces [Eq] on the tile loop
   (same point, same tile), which keeps dependence vectors precise on
   tiled kernels. *)
let bound_parents (k : Ast.kernel) =
  let rec go acc (s : Ast.stmt) =
    match s with
    | Assign _ -> acc
    | Seq ss -> List.fold_left go acc ss
    | If (_, t, e) ->
        let acc = go acc t in
        (match e with None -> acc | Some e -> go acc e)
    | For l ->
        let acc =
          match l.lo with
          | Var u -> (l.index, u) :: acc
          | _ -> acc
        in
        go acc l.body
  in
  go [] k.body

let propagate_bound_eq parents dirs =
  let dirs = ref dirs in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (child, parent) ->
        match (List.assoc_opt child !dirs, List.assoc_opt parent !dirs) with
        | Some Eq, Some Star ->
            dirs := (parent, Eq) :: List.remove_assoc parent !dirs;
            changed := true
        | _ -> ())
      parents
  done;
  !dirs

let dependences (k : Ast.kernel) =
  let accesses, scalars_written = collect_accesses k in
  let parents = bound_parents k in
  let loop_indices = Ast.loop_indices k.body in
  let deps = ref [] in
  let arr = Array.of_list accesses in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let a1 = arr.(i) and a2 = arr.(j) in
      if a1.array = a2.array && (a1.is_write || a2.is_write)
         && not (i = j && not a1.is_write)
      then begin
        match directions_for ~loop_indices a1 a2 with
        | None -> ()
        | Some dirs ->
            let kind =
              match (a1.is_write, a2.is_write) with
              | true, true -> Output
              | true, false -> Flow
              | false, true -> Anti
              | false, false ->
                  invalid_arg
                    (Printf.sprintf
                       "Dependence.dependences: read/read pair on array %s \
                        reached dependence classification (the pair filter \
                        requires at least one write)"
                       a1.array)
            in
            let dirs = propagate_bound_eq parents dirs in
            let ordered = order_directions a1.loops dirs in
            let kind, ordered = normalize kind ordered in
            (* Self-pairs with an all-Eq vector are the same access in the
               same iteration: not a dependence. *)
            let all_eq = List.for_all (fun (_, d) -> d = Eq) ordered in
            if not (i = j && all_eq) then
              deps := { kind; array = a1.array; directions = ordered } :: !deps
      end
    done
  done;
  (* Scalar accumulators: conservative all-Star dependence over every loop. *)
  List.iter
    (fun s ->
      deps :=
        {
          kind = Flow;
          array = s;
          directions = List.map (fun l -> (l, Star)) loop_indices;
        }
        :: !deps)
    scalars_written;
  List.rev !deps

let carried_by k loop =
  List.filter
    (fun d ->
      let rec go = function
        | [] -> false
        | (l, dir) :: rest ->
            if l = loop then dir = Lt || dir = Gt || dir = Star
            else if dir = Eq then go rest
            else if dir = Star then
              (* Could be Eq here and carried later. *)
              go rest
            else false (* definitely carried by an outer loop *)
      in
      go d.directions)
    (dependences k)

let parallel k loop = carried_by k loop = []

(* Enumerate the concrete direction vectors a Star-bearing vector stands
   for, keeping only lexicographically non-negative ones (the normalized
   representatives). *)
let expansions dirs =
  let max_stars = 7 in
  let stars = List.length (List.filter (fun (_, d) -> d = Star) dirs) in
  if stars > max_stars then [ dirs ] (* give up: treated as blocking *)
  else begin
    let rec go = function
      | [] -> [ [] ]
      | (l, Star) :: rest ->
          let tails = go rest in
          List.concat_map
            (fun d -> List.map (fun t -> (l, d) :: t) tails)
            [ Lt; Eq; Gt ]
      | (l, d) :: rest -> List.map (fun t -> (l, d) :: t) (go rest)
    in
    let lex_nonneg v =
      let rec lead = function
        | [] -> true
        | (_, Eq) :: rest -> lead rest
        | (_, Lt) :: _ -> true
        | (_, Gt) :: _ -> false
        | (l, Star) :: _ ->
            invalid_arg
              (Printf.sprintf
                 "Dependence.expansions: direction for loop %s is still Star \
                  after expansion (expansion must substitute every Star)"
                 l)
      in
      lead v
    in
    List.filter lex_nonneg (go dirs)
  end

let lex_negative v =
  let rec lead = function
    | [] -> false
    | (_, Eq) :: rest -> lead rest
    | (_, Gt) :: _ -> true
    | (_, Lt) :: _ -> false
    | (_, Star) :: _ -> true (* conservative *)
  in
  lead v

(* Reorder a direction vector according to a permutation of loop names. *)
let permute order v =
  List.filter_map
    (fun l -> Option.map (fun d -> (l, d)) (List.assoc_opt l v))
    order
  @ List.filter (fun (l, _) -> not (List.mem l order)) v

let interchange_legal k ~outer ~inner =
  List.for_all
    (fun d ->
      let relevant =
        List.exists (fun (l, _) -> l = outer) d.directions
        && List.exists (fun (l, _) -> l = inner) d.directions
      in
      (not relevant)
      || List.for_all
           (fun v ->
             let loops = List.map fst v in
             let swapped =
               List.map
                 (fun l ->
                   if l = outer then inner
                   else if l = inner then outer
                   else l)
                 loops
             in
             not (lex_negative (permute swapped v)))
           (expansions d.directions))
    (dependences k)

let jam_legal k loop =
  (* Unroll-and-jam of [loop] interleaves its iterations inside all loops
     nested within it: legal iff sinking [loop] to the innermost position
     never reverses a dependence. *)
  List.for_all
    (fun d ->
      let loops = List.map fst d.directions in
      (not (List.mem loop loops))
      || List.for_all
           (fun v ->
             let order =
               List.filter (fun l -> l <> loop) loops @ [ loop ]
             in
             not (lex_negative (permute order v)))
           (expansions d.directions))
    (dependences k)

(* Shared safety core for fusion and distribution: every access pair
   between an "earlier" and a "later" code region touching a common array
   (with at least one write) must be aligned or forward at [index] —
   the earlier region's iteration never exceeds the later region's for
   the same element.  Written scalars shared across regions always
   block. *)
let regions_orderable ~loop_indices ~index earlier later =
  let acc_e, sw_e = earlier and acc_l, sw_l = later in
  (* Scalar reads are invisible to the access list, so any written scalar
     in either region conservatively blocks reordering. *)
  sw_e = [] && sw_l = []
  && List.for_all
       (fun (a : access) ->
         List.for_all
           (fun (b : access) ->
             if a.array <> b.array || ((not a.is_write) && not b.is_write)
             then true
             else begin
               match directions_for ~loop_indices a b with
               | None -> true
               | Some dirs -> (
                   match List.assoc_opt index dirs with
                   | Some (Lt | Eq) -> true
                   | Some (Gt | Star) | None -> false)
             end)
           acc_l)
       acc_e

let fusion_legal (k : Ast.kernel) ~first ~second =
  match (Ast.find_loop k.body first, Ast.find_loop k.body second) with
  | Some l1, Some l2 ->
      let loop_indices = Ast.loop_indices k.body in
      (* View the second body in the first loop's index space. *)
      let renamed_body =
        Ast.subst ~var:l2.index ~by:(Ast.Var l1.index) l2.body
      in
      let earlier = collect_stmt ~loops:[ l1.index ] l1.body in
      let later = collect_stmt ~loops:[ l1.index ] renamed_body in
      regions_orderable ~loop_indices ~index:l1.index earlier later
  | _ -> false

let distribution_legal (k : Ast.kernel) index =
  match Ast.find_loop k.body index with
  | None -> false
  | Some l -> (
      let loop_indices = Ast.loop_indices k.body in
      let groups =
        match l.body with
        | Seq ss -> List.map (collect_stmt ~loops:[ index ]) ss
        | other -> [ collect_stmt ~loops:[ index ] other ]
      in
      let rec pairs = function
        | [] -> true
        | earlier :: rest ->
            List.for_all
              (fun later ->
                regions_orderable ~loop_indices ~index earlier later)
              rest
            && pairs rest
      in
      pairs groups)
