(* Print a digest of the access and stride analysis of the fixed
   configurations (configs.ml), one line per configuration: the kernel,
   the configuration and the MD5 of a canonical rendering of
   [Analysis.analyze (Spapt.transformed t c)], every float in hexadecimal
   ([%h]).  A price is a many-to-one function of the analysis, so the
   analysis is pinned on its own, in the view the machine model prices:
   per loop its trips, step, operation counts and children, and its
   accesses grouped into streams by (array, coefficients, affine), in the
   model's summation order, each with its count of distinct constant
   offsets and of accesses.  Any change to a trip count, an operation
   count, a stream, its coefficient order or a single bit of a stride
   shows up as a diff. *)

module Spapt = Altune_spapt.Spapt
module Analysis = Altune_kernellang.Analysis

let render (a : Analysis.t) =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  let stream (st : Analysis.stream) =
    add "  stream %s affine=%b distinct=%d mult=%d coeffs=" st.array st.affine
      st.distinct st.mult;
    List.iter (fun (v, c) -> add "%s:%h;" v c) st.coeffs;
    add "\n"
  in
  let rec loop depth (n : Analysis.loop_node) =
    add "loop %d %s trips=%h step=%d flops=%h iops=%h stmts=%h streams=%d \
         children=%d\n"
      depth n.index n.trips n.step n.flops n.iops n.stmts
      (List.length n.streams) (List.length n.children);
    List.iter stream n.streams;
    List.iter (loop (depth + 1)) n.children
  in
  add "roots=%d\n" (List.length a.roots);
  List.iter (loop 0) a.roots;
  List.iter (fun (name, e) -> add "array %s %h\n" name e) a.array_elements;
  add "straightline=%h\n" a.straightline_stmts;
  Buffer.contents b

let () =
  Configs.iter (fun t config ->
      let a = Analysis.analyze (Spapt.transformed t config) in
      Printf.printf "%s %s\n" (Configs.label t config)
        (Digest.to_hex (Digest.string (render a))))
