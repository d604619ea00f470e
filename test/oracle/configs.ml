(* The fixed configurations the oracle programs evaluate, in one order:
   per kernel, the all-minimum configuration, the all-maximum one (the
   costliest to transform, analyze and price) and 40 uniform draws from
   seed 5. *)

module Spapt = Altune_spapt.Spapt
module Rng = Altune_prng.Rng

let draws = 40

(* [iter f] calls [f t config] on every configuration, kernel by kernel. *)
let iter f =
  let rng = Rng.create ~seed:5 in
  List.iter
    (fun t ->
      let knobs = Array.of_list (Spapt.knobs t) in
      f t (Array.map (fun _ -> 0) knobs);
      f t (Array.map (fun k -> Spapt.knob_cardinality k - 1) knobs);
      for _ = 1 to draws do
        f t (Spapt.random_config t rng)
      done)
    (Spapt.all ())

(* The kernel's name and the configuration, as each output line starts. *)
let label t config =
  Printf.sprintf "%s %s" (Spapt.name t)
    (String.concat "," (Array.to_list (Array.map string_of_int config)))
