(* Print the MD5 of each learner event file named on the command line,
   in md5sum's format, skipping its ["ev":"manifest"] header line: the
   manifest names the host and the revision, the events do not. *)

let is_manifest line = String.starts_with ~prefix:"{\"ev\":\"manifest\"" line

let () =
  for i = 1 to Array.length Sys.argv - 1 do
    let path = Sys.argv.(i) in
    let ic = open_in_bin path in
    let buf = Buffer.create 65536 in
    (try
       while true do
         let line = input_line ic in
         if not (is_manifest line) then begin
           Buffer.add_string buf line;
           Buffer.add_char buf '\n'
         end
       done
     with End_of_file -> close_in ic);
    Printf.printf "%s  %s\n"
      (Digest.to_hex (Digest.string (Buffer.contents buf)))
      (Filename.basename path)
  done
