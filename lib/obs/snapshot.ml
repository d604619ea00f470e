type writer = {
  path : string;
  lock : Mutex.t;
  mutable oc : out_channel;
  mutable in_file : int;
  mutable closed : bool;
}

(* Records per file, and rotated files retained. *)
let rotate_after = 1000
let keep = 3

let create path =
  {
    path;
    lock = Mutex.create ();
    oc = open_out path;
    in_file = 0;
    closed = false;
  }

let rotated path n = Printf.sprintf "%s.%d" path n

let rotate w =
  close_out w.oc;
  (* Shift path.(keep-1) -> path.keep, ..., path -> path.1; the file
     that falls off the end is simply overwritten by the rename. *)
  for n = keep - 1 downto 1 do
    let src = rotated w.path n in
    if Sys.file_exists src then Sys.rename src (rotated w.path (n + 1))
  done;
  Sys.rename w.path (rotated w.path 1);
  w.oc <- open_out w.path;
  w.in_file <- 0

let write w record =
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      if w.closed then invalid_arg "Snapshot.write: writer is closed";
      if w.in_file >= rotate_after then rotate w;
      output_string w.oc (Json.to_string record);
      output_char w.oc '\n';
      flush w.oc;
      w.in_file <- w.in_file + 1)

let close w =
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      if not w.closed then begin
        close_out w.oc;
        w.closed <- true
      end)

let load path =
  if not (Sys.file_exists path) then []
  else
    (* A blank or torn line does not parse and is skipped. *)
    List.filter_map
      (fun line -> Result.to_option (Json.of_string line))
      (In_channel.with_open_text path In_channel.input_lines)

let load_all path =
  (* Oldest rotation first: path.N for the largest N that exists, down
     to path.1, then the live file. *)
  let rec max_n n = if Sys.file_exists (rotated path (n + 1)) then max_n (n + 1) else n in
  let top = if Sys.file_exists (rotated path 1) then max_n 1 else 0 in
  let rotations = List.init top (fun i -> rotated path (top - i)) in
  List.concat_map load (rotations @ [ path ])
