type step =
  | Unroll of { index : string; factor : int }
  | Tile_nest of (string * int) list
  | Unroll_and_jam of { index : string; factor : int }

let step_to_string = function
  | Unroll { index; factor } -> Printf.sprintf "unroll %s x%d" index factor
  | Tile_nest spec ->
      Printf.sprintf "tile %s"
        (String.concat " "
           (List.map (fun (l, t) -> Printf.sprintf "%s:%d" l t) spec))
  | Unroll_and_jam { index; factor } ->
      Printf.sprintf "unroll-and-jam %s x%d" index factor

let apply_step step k =
  match step with
  | Unroll { index; factor } -> Transform.unroll ~index ~factor k
  | Tile_nest spec -> Transform.tile_nest spec k
  | Unroll_and_jam { index; factor } ->
      Transform.unroll_and_jam ~index ~factor k

let apply_steps steps k =
  List.fold_left (fun acc s -> Result.bind acc (apply_step s)) (Ok k) steps

type status = Pass | Fail of string | Skipped of string

type check = { check_name : string; status : status }

type step_report = { step : string; checks : check list }

type verdict = { subject : string; reports : step_report list }

let failures v =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun c ->
          match c.status with Fail _ -> Some (r.step, c) | _ -> None)
        r.checks)
    v.reports

let ok v = failures v = []

let pp_verdict ppf v =
  Format.fprintf ppf "@[<v>%s: %s" v.subject
    (if ok v then "ok" else "FAILED");
  List.iter
    (fun r ->
      let failed =
        List.filter
          (fun c -> match c.status with Fail _ -> true | _ -> false)
          r.checks
      in
      let skipped =
        List.filter
          (fun c -> match c.status with Skipped _ -> true | _ -> false)
          r.checks
      in
      if failed = [] then begin
        if skipped = [] then
          Format.fprintf ppf "@;<1 2>%s: ok (%d checks)" r.step
            (List.length r.checks)
        else
          Format.fprintf ppf "@;<1 2>%s: skipped (%s)" r.step
            (match (List.hd skipped).status with
            | Skipped why -> why
            | Pass | Fail _ -> "")
      end
      else
        List.iter
          (fun c ->
            match c.status with
            | Fail m ->
                Format.fprintf ppf "@;<1 2>%s: %s FAILED: %s" r.step
                  c.check_name m
            | Pass | Skipped _ -> ())
          failed)
    v.reports;
  Format.fprintf ppf "@]"

let verdict_to_string v = Format.asprintf "%a" pp_verdict v

(* --- Legality, re-derived from the dependence analysis --- *)

let legality k step : status =
  try
    match step with
    | Unroll _ ->
        (* Body replication plus a remainder loop: iteration order is
           untouched, so unrolling needs no dependence argument. *)
        Pass
    | Tile_nest spec -> (
        (* Rectangular tiling hoists every tile loop above every point
           loop of the nest, which is sound iff the tiled loops are
           pairwise interchangeable. *)
        let tiled =
          List.filter_map (fun (l, t) -> if t > 1 then Some l else None) spec
        in
        let rec pairs = function
          | [] | [ _ ] -> []
          | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest
        in
        match
          List.find_opt
            (fun (a, b) ->
              not (Dependence.interchange_legal k ~outer:a ~inner:b))
            (pairs tiled)
        with
        | None -> Pass
        | Some (a, b) ->
            Fail
              (Printf.sprintf
                 "tile nest is not permutable: interchanging %s and %s \
                  would reverse a dependence"
                 a b))
    | Unroll_and_jam { index; _ } ->
        if Dependence.jam_legal k index then Pass
        else
          Fail
            (Printf.sprintf
               "unroll-and-jam of %s would reverse a dependence when its \
                iterations are interleaved innermost"
               index)
  with e -> Fail ("legality analysis raised: " ^ Printexc.to_string e)

(* --- Interpreter-based checks --- *)

let default_array_init name i =
  let h = Hashtbl.hash (name, i) land 0xFFFF in
  (float_of_int h /. 65536.0) +. 0.5

type run_result = {
  arrays : (string * float array) list;
  scalars : (string * float) list;
  counts : (string * (int * int)) list;  (* array -> (loads, stores) *)
}

let execute ?param_overrides (k : Ast.kernel) =
  let counts : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  let on_access a _off is_write =
    let loads, stores =
      Option.value ~default:(0, 0) (Hashtbl.find_opt counts a)
    in
    Hashtbl.replace counts a
      (if is_write then (loads, stores + 1) else (loads + 1, stores))
  in
  let env =
    Interp.init ?param_overrides ~array_init:default_array_init ~on_access k
  in
  Interp.run env k;
  {
    arrays =
      List.map
        (fun (d : Ast.array_decl) ->
          (d.array_name, Interp.read_array env d.array_name))
        k.arrays;
    scalars = List.map (fun s -> (s, Interp.read_scalar env s)) k.scalars;
    counts =
      List.sort compare (Hashtbl.fold (fun a c acc -> (a, c) :: acc) counts []);
  }

let well_formed ?param_overrides k : status =
  match Ast.validate k with
  | Error e ->
      Fail (Format.asprintf "Ast.validate: %a" Ast.pp_validation_error e)
  | Ok () -> (
      match Lint.errors (Lint.lint ?param_overrides k) with
      | [] -> Pass
      | errs ->
          Fail
            (Printf.sprintf "%d lint error(s); first: %s" (List.length errs)
               (Lint.diagnostic_to_string (List.hd errs))))

let lex_negative dirs =
  let rec go = function
    | [] -> false
    | (_, Dependence.Eq) :: rest -> go rest
    | (_, Dependence.Gt) :: _ -> true
    | (_, (Dependence.Lt | Dependence.Star)) :: _ -> false
  in
  go dirs

let dependences_sound k : status =
  match
    List.find_opt
      (fun (d : Dependence.dependence) -> lex_negative d.directions)
      (Dependence.dependences k)
  with
  | exception e -> Fail ("dependence analysis raised: " ^ Printexc.to_string e)
  | None -> Pass
  | Some d ->
      Fail
        (Format.asprintf
           "normalization invariant violated: %a is lexicographically \
            negative"
           Dependence.pp_dependence d)

let approx_equal ~tolerance a b =
  Float.abs (a -. b)
  <= tolerance *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check_pair ?param_overrides ?(tolerance = 1e-9) ~original ~transformed ()
    =
  let wf =
    {
      check_name = "well-formed";
      status = well_formed ?param_overrides transformed;
    }
  in
  let deps =
    { check_name = "dependences"; status = dependences_sound transformed }
  in
  let exec_checks =
    try
      let r0 = execute ?param_overrides original in
      let r1 = execute ?param_overrides transformed in
      let count_status =
        if r0.counts = r1.counts then Pass
        else begin
          let describe cs =
            String.concat ", "
              (List.map
                 (fun (a, (l, s)) ->
                   Printf.sprintf "%s: %d loads / %d stores" a l s)
                 cs)
          in
          Fail
            (Printf.sprintf
               "per-array access counts differ (iteration instances were \
                added or dropped): original {%s} vs transformed {%s}"
               (describe r0.counts) (describe r1.counts))
        end
      in
      let diff_status =
        let bad = ref None in
        List.iter2
          (fun (na, va) (nb, vb) ->
            if !bad = None then begin
              if na <> nb || Array.length va <> Array.length vb then
                bad :=
                  Some
                    (Printf.sprintf "array layout differs (%s vs %s)" na nb)
              else
                Array.iteri
                  (fun i x ->
                    if !bad = None && not (approx_equal ~tolerance x vb.(i))
                    then
                      bad :=
                        Some
                          (Printf.sprintf
                             "array %s differs at flat offset %d: %.17g vs \
                              %.17g"
                             na i x vb.(i)))
                  va
            end)
          r0.arrays r1.arrays;
        List.iter2
          (fun (ns, x) (_, y) ->
            if !bad = None && not (approx_equal ~tolerance x y) then
              bad :=
                Some
                  (Printf.sprintf "scalar %s differs: %.17g vs %.17g" ns x y))
          r0.scalars r1.scalars;
        match !bad with None -> Pass | Some m -> Fail m
      in
      [
        { check_name = "access-counts"; status = count_status };
        { check_name = "differential"; status = diff_status };
      ]
    with e ->
      [
        {
          check_name = "execution";
          status = Fail ("interpreter run failed: " ^ Printexc.to_string e);
        };
      ]
  in
  wf :: deps :: exec_checks

let run ?param_overrides ?tolerance ?(subject = "kernel") k steps =
  let original_report =
    {
      step = "original";
      checks =
        [
          {
            check_name = "well-formed";
            status = well_formed ?param_overrides k;
          };
          { check_name = "dependences"; status = dependences_sound k };
        ];
    }
  in
  let rec go cur acc = function
    | [] -> List.rev acc
    | s :: rest -> (
        let label = step_to_string s in
        let leg = { check_name = "legality"; status = legality cur s } in
        match apply_step s cur with
        | Error e ->
            let applies =
              {
                check_name = "applies";
                status = Fail (Transform.error_to_string e);
              }
            in
            let skipped =
              List.map
                (fun s' ->
                  {
                    step = step_to_string s';
                    checks =
                      [
                        {
                          check_name = "all";
                          status = Skipped "an earlier step failed to apply";
                        };
                      ];
                  })
                rest
            in
            List.rev_append acc
              ({ step = label; checks = [ leg; applies ] } :: skipped)
        | Ok k' ->
            let checks =
              leg
              :: { check_name = "applies"; status = Pass }
              :: check_pair ?param_overrides ?tolerance ~original:cur
                   ~transformed:k' ()
            in
            go k' ({ step = label; checks } :: acc) rest)
  in
  { subject; reports = original_report :: go k [] steps }
