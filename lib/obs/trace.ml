type attr =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool

type ctx = int option

type sink = {
  lock : Mutex.t;
  write : string -> unit;
  close : unit -> unit;
  t0 : int64;  (* monotonic origin: span times are seconds since t0 *)
}

external now_ns : unit -> (int64[@unboxed])
  = "altune_monotonic_now_byte" "altune_monotonic_now" [@@noalloc]

let sink_state : sink option Atomic.t = Atomic.make None
let next_id = Atomic.make 1
let enabled () = Option.is_some (Atomic.get sink_state)

(* Per-domain parentage: a base context (set by [with_ctx] when a pool
   task starts on some domain) plus the stack of spans opened here.
   [add_attrs] mutates only the top frame of this domain's stack, so no
   frame is ever shared between domains. *)
type frame = { id : int; mutable extra : (string * attr) list }
type tls_state = { mutable base : ctx; mutable stack : frame list }

let tls : tls_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { base = None; stack = [] })

let current () =
  let st = Domain.DLS.get tls in
  match st.stack with [] -> st.base | f :: _ -> Some f.id

let with_ctx ctx f =
  let st = Domain.DLS.get tls in
  let saved_base = st.base and saved_stack = st.stack in
  st.base <- ctx;
  st.stack <- [];
  Fun.protect
    ~finally:(fun () ->
      st.base <- saved_base;
      st.stack <- saved_stack)
    f

let add_attrs attrs =
  match (Domain.DLS.get tls).stack with
  | [] -> ()
  | f :: _ -> f.extra <- f.extra @ attrs

(* --- Sink management --------------------------------------------------- *)

let uninstall () =
  match Atomic.exchange sink_state None with
  | None -> ()
  | Some s ->
      Mutex.lock s.lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) s.close

let install ?(on_line = fun _ -> ()) ?(close = fun () -> ()) () =
  uninstall ();
  Atomic.set sink_state
    (Some
       { lock = Mutex.create (); write = on_line; close; t0 = now_ns () })

let emit_line line =
  match Atomic.get sink_state with
  | None -> ()
  | Some s ->
      Mutex.lock s.lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) (fun () ->
          s.write line)

let emit_json j = emit_line (Json.to_string j)

let with_file path ?manifest f =
  let oc = open_out path in
  install
    ~on_line:(fun line ->
      output_string oc line;
      output_char oc '\n')
    ~close:(fun () -> close_out oc)
    ();
  Option.iter emit_json manifest;
  Fun.protect ~finally:uninstall f

let with_memory f =
  let lines = ref [] in
  install ~on_line:(fun l -> lines := l :: !lines) ();
  let v = Fun.protect ~finally:uninstall f in
  (v, List.rev !lines)

(* --- Spans ------------------------------------------------------------- *)

let attr_json = function
  | String s -> Json.String s
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b

let span_json ~id ~parent ~name ~phase ~attrs ~domain ~start_s ~dur_s ~err =
  let fields =
    [ ("ev", Json.String "span"); ("id", Json.Int id) ]
    @ (match parent with Some p -> [ ("parent", Json.Int p) ] | None -> [])
    @ [ ("name", Json.String name) ]
    @ (match phase with Some p -> [ ("phase", Json.String p) ] | None -> [])
    @ [
        ("domain", Json.Int domain);
        ("start", Json.Float start_s);
        ("dur", Json.Float dur_s);
      ]
    @ (if err then [ ("err", Json.Bool true) ] else [])
    @
    match attrs with
    | [] -> []
    | kvs ->
        [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, attr_json v)) kvs)) ]
  in
  Json.Obj fields

let seconds_since t0 t = Int64.to_float (Int64.sub t t0) /. 1e9

let with_span ?phase ?(attrs = []) ~name f =
  match Atomic.get sink_state with
  | None -> f ()
  | Some s ->
      let st = Domain.DLS.get tls in
      let parent =
        match st.stack with [] -> st.base | fr :: _ -> Some fr.id
      in
      let id = Atomic.fetch_and_add next_id 1 in
      let frame = { id; extra = [] } in
      st.stack <- frame :: st.stack;
      let t_start = now_ns () in
      let finish err =
        let t_end = now_ns () in
        (* Pop exactly our frame even if f tampered with nesting. *)
        (match st.stack with
        | fr :: rest when fr == frame -> st.stack <- rest
        | _ -> st.stack <- List.filter (fun fr -> fr != frame) st.stack);
        emit_line
          (Json.to_string
             (span_json ~id ~parent ~name ~phase
                ~attrs:(attrs @ frame.extra)
                ~domain:(Domain.self () :> int)
                ~start_s:(seconds_since s.t0 t_start)
                ~dur_s:(seconds_since t_start t_end)
                ~err))
      in
      (match f () with
      | v ->
          finish false;
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          finish true;
          Printexc.raise_with_backtrace e bt)
