let make_stop () = Atomic.make false
let make_flag = make_stop

let install_signal_handlers ?usr1 stop =
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  (* SIGINT may be unavailable in exotic environments; serve what we can. *)
  (try Sys.set_signal Sys.sigint handler with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ | Sys_error _ -> ());
  match usr1 with
  | None -> ()
  | Some flag -> (
      let handler = Sys.Signal_handle (fun _ -> Atomic.set flag true) in
      try Sys.set_signal Sys.sigusr1 handler
      with Invalid_argument _ | Sys_error _ -> ())

let finish server =
  if not (Server.stopped server) then ignore (Server.graceful_stop server)

(* The telemetry pump: called between requests and on idle polls.  It
   drains a pending SIGUSR1 into a flight-recorder dump and appends a
   record to the snapshot series every [snapshot_every] seconds.  Both
   are pure side channels — nothing is written to the protocol stream,
   so transcripts stay byte-identical with the pump running. *)
let pump ?usr1 ?(flight_dump = "flight-dump.jsonl") server =
  let last = ref (Unix.gettimeofday ()) in
  fun () ->
    (match usr1 with
    | Some flag when Atomic.exchange flag false ->
        Server.flight_dump_to server flight_dump
    | _ -> ());
    if Server.snapshots_on server && not (Server.stopped server) then begin
      let now = Unix.gettimeofday () in
      if now -. !last >= Server.snapshot_every server then begin
        last := now;
        Server.snapshot server
      end
    end

(* The peer hung up: a read or a write on its connection failed. *)
exception Hangup

(* Replies go straight to the descriptor, never through a channel: a
   reply the peer did not take is then not left in a buffer that a later
   flush (at exit, say) would fail on. *)
let rec write_all fd s ofs =
  if ofs < String.length s then
    match Unix.write_substring fd s ofs (String.length s - ofs) with
    | n -> write_all fd s (ofs + n)
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd s ofs
    | exception Unix.Unix_error _ -> raise Hangup

let respond server output line =
  let line = String.trim line in
  if line <> "" then write_all output (Server.handle_line server line ^ "\n") 0

(* The one request loop, over a raw fd: every transport runs it.  It
   polls, so a pending signal is noticed within [poll] seconds even when
   no request is in flight (buffered [input_line] would block until the
   next byte).  [tick] runs once per poll round — the pump's cadence
   floor is the poll interval.  At end of input a final line without a
   newline is still served.  A peer that hangs up ends the loop as end
   of input does, its unanswered requests dropped. *)
let serve_fd ~stop ~poll ~tick server fd output =
  let pending = Queue.create () in
  let acc = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let eof = ref false in
  let feed () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 ->
        if Buffer.length acc > 0 then Queue.add (Buffer.contents acc) pending;
        eof := true
    | n ->
        for i = 0 to n - 1 do
          match Bytes.get chunk i with
          | '\n' ->
              Queue.add (Buffer.contents acc) pending;
              Buffer.clear acc
          | c -> Buffer.add_char acc c
        done
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> raise Hangup
  in
  let rec loop () =
    if Atomic.get stop || Server.stopped server then ()
    else if not (Queue.is_empty pending) then begin
      respond server output (Queue.pop pending);
      tick ();
      loop ()
    end
    else if !eof then ()
    else begin
      (match Unix.select [ fd ] [] [] poll with
      | [], _, _ -> ()
      | _ -> feed ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      tick ();
      loop ()
    end
  in
  try loop () with Hangup -> ()

(* Run a transport [f], then the graceful stop.  A reader that goes away
   must not kill the daemon: with SIGPIPE ignored while [f] runs, a write
   to it fails with EPIPE instead, which ends that stream as a hang-up.
   The old SIGPIPE disposition is restored on return. *)
let serving server f =
  let sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (Sys.set_signal Sys.sigpipe) sigpipe;
      finish server)
    f

let serve_script ?usr1 ?flight_dump server ~path ~output =
  let tick = pump ?usr1 ?flight_dump server in
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  serving server @@ fun () ->
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> serve_fd ~stop:(make_stop ()) ~poll:0.2 ~tick server fd output)

let serve_stdio ?(stop = make_stop ()) ?usr1 ?flight_dump server =
  let tick = pump ?usr1 ?flight_dump server in
  serving server @@ fun () ->
  serve_fd ~stop ~poll:0.2 ~tick server Unix.stdin Unix.stdout

let serve_socket ?(stop = make_stop ()) ?usr1 ?flight_dump server ~path =
  let tick = pump ?usr1 ?flight_dump server in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  serving server @@ fun () ->
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept_loop () =
        if Atomic.get stop || Server.stopped server then ()
        else begin
          (match Unix.select [ sock ] [] [] 0.2 with
          | [], _, _ -> ()
          | _ -> (
              match Unix.accept sock with
              | client, _ ->
                  Fun.protect
                    ~finally:(fun () ->
                      try Unix.close client with Unix.Unix_error _ -> ())
                    (fun () ->
                      serve_fd ~stop ~poll:0.2 ~tick server client client)
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          tick ();
          accept_loop ()
        end
      in
      accept_loop ())
