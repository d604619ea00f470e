(* Print a digest of the transformed kernel of each fixed configuration
   (configs.ml), one line per configuration: the kernel, the
   configuration, the MD5 of [Pretty.to_string] of
   [Spapt.transformed t c] and the MD5 of the same kernel marshalled
   without sharing, which also sees the statement tree's shape (nested
   sequences) that printing flattens.  Any change to a generated loop
   name, a bound, a subscript or the order of statements shows up as a
   diff. *)

module Spapt = Altune_spapt.Spapt
module Pretty = Altune_kernellang.Pretty

let () =
  Configs.iter (fun t config ->
      let k = Spapt.transformed t config in
      Printf.printf "%s %s %s\n" (Configs.label t config)
        (Digest.to_hex (Digest.string (Pretty.to_string k)))
        (Digest.to_hex
           (Digest.string (Marshal.to_string k [ Marshal.No_sharing ]))))
