module Metrics = Altune_obs.Metrics

(* A published entry carries the second-chance reference bit of the
   bounded mode: a hit sets it, and the eviction sweep gives each
   referenced entry one reprieve before it goes. *)
type 'v state = In_progress | Ready of { value : 'v; mutable referenced : bool }

(* Synchronization goes through [Sync] (real primitives in production,
   the model-checking scheduler under [Altune_conc]); [tbl_loc] names
   the table to the race checker as a single cell, which is exactly the
   protocol: every touch of [tbl] (and of [ring]) must hold [lock]. *)
type ('k, 'v) t = {
  lock : Sync.mutex;
  done_cond : Sync.cond;  (* a computation published or was dropped *)
  tbl : ('k, 'v state) Hashtbl.t;
  tbl_loc : Sync.loc;
  capacity : int option;
  ring : 'k Queue.t;
      (* Bounded mode only: exactly the published keys, in publication
         order (in-flight keys are never in it, so never evicted). *)
  hits : Metrics.counter;
  misses : Metrics.counter;
  waits : Metrics.counter;
  evictions : Metrics.counter;
}

let create ?capacity ?(name = "memo") () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Memo.create: capacity must be >= 1"
  | _ -> ());
  {
    lock = Sync.mutex ();
    done_cond = Sync.cond ();
    tbl = Hashtbl.create 64;
    tbl_loc = Sync.loc (name ^ ".tbl");
    capacity;
    ring = Queue.create ();
    hits = Metrics.counter (name ^ ".hits");
    misses = Metrics.counter (name ^ ".misses");
    waits = Metrics.counter (name ^ ".waits");
    evictions = Metrics.counter (name ^ ".evictions");
  }

(* Make room for one more published entry.  Called with the lock held.
   The ring holds every published key, so the pop cannot fail while the
   ring is at capacity, and a full sweep clears every reference bit, so
   the loop terminates. *)
let make_room t cap =
  while Queue.length t.ring >= cap do
    let k = Queue.pop t.ring in
    match Hashtbl.find_opt t.tbl k with
    | Some (Ready r) when r.referenced ->
        r.referenced <- false;
        Queue.push k t.ring
    | Some (Ready _) ->
        Hashtbl.remove t.tbl k;
        Metrics.incr t.evictions
    | Some In_progress | None -> ()
  done

let find_or_compute t k compute =
  Sync.lock t.lock;
  let rec acquire ~waited =
    Sync.read t.tbl_loc ~site:"memo.find_or_compute: lookup";
    match Hashtbl.find_opt t.tbl k with
    | Some (Ready r) ->
        r.referenced <- true;
        Sync.unlock t.lock;
        Metrics.incr t.hits;
        r.value
    | Some In_progress ->
        if not waited then Metrics.incr t.waits;
        Sync.wait t.done_cond t.lock;
        acquire ~waited:true
    | None -> (
        (* Also the path of a waiter whose key was published and then
           evicted before it woke: it recomputes the value itself. *)
        Sync.write t.tbl_loc ~site:"memo.find_or_compute: claim in-progress";
        Hashtbl.replace t.tbl k In_progress;
        Sync.unlock t.lock;
        Metrics.incr t.misses;
        match compute () with
        | v ->
            Sync.lock t.lock;
            Sync.write t.tbl_loc ~site:"memo.find_or_compute: publish";
            Option.iter
              (fun cap ->
                make_room t cap;
                Queue.push k t.ring)
              t.capacity;
            Hashtbl.replace t.tbl k (Ready { value = v; referenced = false });
            Sync.broadcast t.done_cond;
            Sync.unlock t.lock;
            v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Sync.lock t.lock;
            Sync.write t.tbl_loc ~site:"memo.find_or_compute: drop failed";
            Hashtbl.remove t.tbl k;
            Sync.broadcast t.done_cond;
            Sync.unlock t.lock;
            Printexc.raise_with_backtrace e bt)
  in
  acquire ~waited:false

let find_opt t k =
  Sync.lock t.lock;
  Sync.read t.tbl_loc ~site:"memo.find_opt: lookup";
  let r =
    match Hashtbl.find_opt t.tbl k with
    | Some (Ready r) -> Some r.value
    | Some In_progress | None -> None
  in
  Sync.unlock t.lock;
  r

let mem t k = Option.is_some (find_opt t k)

let clear t =
  Sync.lock t.lock;
  Sync.write t.tbl_loc ~site:"memo.clear";
  (* Keep in-flight markers: their computers will publish under this same
     lock and any current waiters still expect the value to appear. *)
  let in_flight =
    Hashtbl.fold
      (fun k s acc -> match s with In_progress -> k :: acc | Ready _ -> acc)
      t.tbl []
  in
  Hashtbl.reset t.tbl;
  Queue.clear t.ring;
  List.iter (fun k -> Hashtbl.replace t.tbl k In_progress) in_flight;
  Sync.unlock t.lock

let length t =
  Sync.lock t.lock;
  Sync.read t.tbl_loc ~site:"memo.length";
  let n =
    Hashtbl.fold
      (fun _ s acc -> match s with Ready _ -> acc + 1 | In_progress -> acc)
      t.tbl 0
  in
  Sync.unlock t.lock;
  n
