(* Instruments live in a name-keyed registry; callers hold *handles*
   that point at the registered cell.  [reset] bumps a global epoch and
   empties the registry; a handle whose epoch is stale re-registers (or
   adopts the cell someone else registered under its name) on its next
   use, so instruments created before a reset keep working and show up
   again — the hot path pays one atomic load and an int compare. *)

type instrument =
  | C of int Atomic.t
  | G of float Atomic.t
  | S of Quantile.t

type counter = { c_name : string; mutable c_cell : int Atomic.t; mutable c_seen : int }
type gauge = { g_name : string; mutable g_cell : float Atomic.t; mutable g_seen : int }

type sketch = {
  s_name : string;
  s_alpha : float;
  mutable s_cell : Quantile.t;
  mutable s_seen : int;
}

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()
let epoch = Atomic.make 0

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let kind_error name want =
  invalid_arg (Printf.sprintf "Metrics: %S is not a %s" name want)

(* Find the cell registered under [name], or register [fresh ()].
   Must run under the registry lock; returns the current epoch too so
   the caller can stamp its handle consistently. *)
let resolve name ~adopt ~fresh =
  match Hashtbl.find_opt registry name with
  | Some i -> (adopt i, Atomic.get epoch)
  | None ->
      let cell, inst = fresh () in
      Hashtbl.replace registry name inst;
      (cell, Atomic.get epoch)

(* --- Counters ---------------------------------------------------------- *)

let counter_resolve name =
  resolve name
    ~adopt:(function C c -> c | _ -> kind_error name "counter")
    ~fresh:(fun () ->
      let c = Atomic.make 0 in
      (c, C c))

let counter name =
  with_registry (fun () ->
      let cell, seen = counter_resolve name in
      { c_name = name; c_cell = cell; c_seen = seen })

let counter_cell h =
  if h.c_seen = Atomic.get epoch then h.c_cell
  else
    with_registry (fun () ->
        let cell, seen = counter_resolve h.c_name in
        h.c_cell <- cell;
        h.c_seen <- seen;
        cell)

let incr h = Atomic.incr (counter_cell h)
let add h n = ignore (Atomic.fetch_and_add (counter_cell h) n)
let counter_value h = Atomic.get (counter_cell h)

(* --- Gauges ------------------------------------------------------------ *)

let gauge_resolve name =
  resolve name
    ~adopt:(function G g -> g | _ -> kind_error name "gauge")
    ~fresh:(fun () ->
      let g = Atomic.make 0.0 in
      (g, G g))

let gauge name =
  with_registry (fun () ->
      let cell, seen = gauge_resolve name in
      { g_name = name; g_cell = cell; g_seen = seen })

let gauge_cell h =
  if h.g_seen = Atomic.get epoch then h.g_cell
  else
    with_registry (fun () ->
        let cell, seen = gauge_resolve h.g_name in
        h.g_cell <- cell;
        h.g_seen <- seen;
        cell)

let set_gauge h v = Atomic.set (gauge_cell h) v
let gauge_value h = Atomic.get (gauge_cell h)

(* --- Sketches ---------------------------------------------------------- *)

let sketch_resolve name alpha =
  resolve name
    ~adopt:(function
      | S s ->
          if Quantile.alpha s <> alpha then
            invalid_arg
              (Printf.sprintf
                 "Metrics: %S already registered with different alpha" name);
          s
      | _ -> kind_error name "sketch")
    ~fresh:(fun () ->
      let s = Quantile.create ~alpha () in
      (s, S s))

let sketch ?(alpha = Quantile.default_alpha) name =
  with_registry (fun () ->
      let cell, seen = sketch_resolve name alpha in
      { s_name = name; s_alpha = alpha; s_cell = cell; s_seen = seen })

let sketch_cell h =
  if h.s_seen = Atomic.get epoch then h.s_cell
  else
    with_registry (fun () ->
        let cell, seen = sketch_resolve h.s_name h.s_alpha in
        h.s_cell <- cell;
        h.s_seen <- seen;
        cell)

let record h v = Quantile.add (sketch_cell h) v
let sketch_data h = sketch_cell h

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

let reset () =
  with_registry (fun () ->
      Hashtbl.reset registry;
      Atomic.incr epoch)
