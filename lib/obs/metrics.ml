(* Instruments live in a name-keyed registry; callers hold handles that
   point straight at the registered cell. *)

type instrument =
  | C of int Atomic.t
  | G of float Atomic.t
  | S of Quantile.t

type counter = int Atomic.t
type gauge = float Atomic.t
type sketch = Quantile.t

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let kind_error name want =
  invalid_arg (Printf.sprintf "Metrics: %S is not a %s" name want)

(* The cell registered under [name], or [fresh ()] registered now. *)
let resolve name ~adopt ~fresh =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some i -> adopt i
      | None ->
          let cell, inst = fresh () in
          Hashtbl.replace registry name inst;
          cell)

(* --- Counters ---------------------------------------------------------- *)

let counter name =
  resolve name
    ~adopt:(function C c -> c | _ -> kind_error name "counter")
    ~fresh:(fun () ->
      let c = Atomic.make 0 in
      (c, C c))

let incr = Atomic.incr
let add h n = ignore (Atomic.fetch_and_add h n)
let counter_value = Atomic.get

(* --- Gauges ------------------------------------------------------------ *)

let gauge name =
  resolve name
    ~adopt:(function G g -> g | _ -> kind_error name "gauge")
    ~fresh:(fun () ->
      let g = Atomic.make 0.0 in
      (g, G g))

let set_gauge = Atomic.set

(* --- Sketches ---------------------------------------------------------- *)

let sketch name =
  resolve name
    ~adopt:(function S s -> s | _ -> kind_error name "sketch")
    ~fresh:(fun () ->
      let s = Quantile.create () in
      (s, S s))

let record = Quantile.add
let sketch_data h = h

(* --- Reporting --------------------------------------------------------- *)

let sorted_instruments () =
  with_registry (fun () ->
      Hashtbl.fold (fun name i acc -> (name, i) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () =
  Json.Obj
    (List.map
       (fun (name, i) ->
         ( name,
           match i with
           | C c -> Json.Int (Atomic.get c)
           | G g -> Json.Float (Atomic.get g)
           | S s -> Quantile.summary_json s ))
       (sorted_instruments ()))

let render () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "--- metrics ---\n";
  List.iter
    (fun (name, i) ->
      match i with
      | C c ->
          Buffer.add_string buf
            (Printf.sprintf "%-32s %d\n" name (Atomic.get c))
      | G g ->
          Buffer.add_string buf
            (Printf.sprintf "%-32s %g\n" name (Atomic.get g))
      | S s ->
          let count = Quantile.count s in
          if count = 0 then
            Buffer.add_string buf (Printf.sprintf "%-32s count=0\n" name)
          else
            Buffer.add_string buf
              (Printf.sprintf "%-32s count=%d p50=%.6g p99=%.6g max=%.6g\n"
                 name count (Quantile.quantile s 0.5) (Quantile.quantile s 0.99)
                 (Quantile.max_value s)))
    (sorted_instruments ());
  Buffer.contents buf

(* Prometheus text exposition, format 0.0.4.  Zero-dependency on
   purpose: one scrape is a string, served over whatever transport the
   caller already has. *)

let prom_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let render_prom () =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun (name, i) ->
      let n = prom_name name in
      match i with
      | C c ->
          line "# TYPE %s counter" n;
          line "%s %d" n (Atomic.get c)
      | G g ->
          line "# TYPE %s gauge" n;
          line "%s %s" n (prom_float (Atomic.get g))
      | S s ->
          line "# TYPE %s summary" n;
          if Quantile.count s > 0 then
            List.iter
              (fun q ->
                line "%s{quantile=\"%s\"} %s" n (prom_float q)
                  (prom_float (Quantile.quantile s q)))
              [ 0.5; 0.9; 0.99 ];
          line "%s_sum %s" n (prom_float (Quantile.sum s));
          line "%s_count %d" n (Quantile.count s))
    (sorted_instruments ());
  Buffer.contents buf
