(* Print the machine-model price of fixed configurations of every SPAPT
   kernel, one line per configuration: the kernel, the configuration and
   its runtime and compile seconds in hexadecimal ([%h]), so that any
   change to a single bit of a price shows up as a diff.  Per kernel it
   prices the all-minimum configuration, the all-maximum one (the
   costliest to analyze and price) and 40 uniform draws from seed 5. *)

module Spapt = Altune_spapt.Spapt
module Rng = Altune_prng.Rng

let draws = 40

let print_price t config =
  Printf.printf "%s %s runtime=%h compile=%h\n" (Spapt.name t)
    (String.concat "," (Array.to_list (Array.map string_of_int config)))
    (Spapt.true_runtime t config)
    (Spapt.compile_seconds t config)

let () =
  let rng = Rng.create ~seed:5 in
  List.iter
    (fun t ->
      let knobs = Array.of_list (Spapt.knobs t) in
      print_price t (Array.map (fun _ -> 0) knobs);
      print_price t
        (Array.map (fun k -> Spapt.knob_cardinality k - 1) knobs);
      for _ = 1 to draws do
        print_price t (Spapt.random_config t rng)
      done)
    (Spapt.all ())
