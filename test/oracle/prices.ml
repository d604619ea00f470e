(* Print the machine-model price of the fixed configurations of every
   SPAPT kernel (configs.ml), one line per configuration: the kernel, the
   configuration and its runtime and compile seconds in hexadecimal
   ([%h]), so that any change to a single bit of a price shows up as a
   diff. *)

module Spapt = Altune_spapt.Spapt

let () =
  Configs.iter (fun t config ->
      Printf.printf "%s runtime=%h compile=%h\n" (Configs.label t config)
        (Spapt.true_runtime t config)
        (Spapt.compile_seconds t config))
