(* Print a digest of the access and stride analysis of the configurations
   that prices.ml prices, one line per configuration: the kernel, the
   configuration and the MD5 of a canonical rendering of
   [Analysis.analyze (Spapt.transformed t c)], every float in hexadecimal
   ([%h]).  A price is a many-to-one function of the analysis, and the
   order of an access's coefficients feeds the machine model's stream
   keys, so the analysis is pinned on its own: any change to a trip count,
   an operation count, an access, its coefficient order or a single bit of
   a stride shows up as a diff. *)

module Spapt = Altune_spapt.Spapt
module Rng = Altune_prng.Rng
module Analysis = Altune_kernellang.Analysis

let draws = 40

let render (a : Analysis.t) =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  let access (x : Analysis.access) =
    add "  access %s write=%b affine=%b offset=%h coeffs=" x.array x.is_write
      x.affine x.offset;
    List.iter (fun (v, c) -> add "%s:%h;" v c) x.coeffs;
    add "\n"
  in
  let rec loop depth (n : Analysis.loop_node) =
    add "loop %d %s trips=%h step=%d flops=%h iops=%h stmts=%h accesses=%d \
         children=%d\n"
      depth n.index n.trips n.step n.flops n.iops n.stmts
      (List.length n.accesses) (List.length n.children);
    List.iter access n.accesses;
    List.iter (loop (depth + 1)) n.children
  in
  add "roots=%d\n" (List.length a.roots);
  List.iter (loop 0) a.roots;
  List.iter (fun (name, e) -> add "array %s %h\n" name e) a.array_elements;
  add "straightline=%h\n" a.straightline_stmts;
  Buffer.contents b

let print_analysis t config =
  Printf.printf "%s %s %s\n" (Spapt.name t)
    (String.concat "," (Array.to_list (Array.map string_of_int config)))
    (Digest.to_hex
       (Digest.string (render (Analysis.analyze (Spapt.transformed t config)))))

let () =
  let rng = Rng.create ~seed:5 in
  List.iter
    (fun t ->
      let knobs = Array.of_list (Spapt.knobs t) in
      print_analysis t (Array.map (fun _ -> 0) knobs);
      print_analysis t
        (Array.map (fun k -> Spapt.knob_cardinality k - 1) knobs);
      for _ = 1 to draws do
        print_analysis t (Spapt.random_config t rng)
      done)
    (Spapt.all ())
