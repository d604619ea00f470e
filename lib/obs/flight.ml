type ring = {
  lines : string array;
  mutable next : int;  (* slot for the next write *)
  mutable filled : int;  (* min (writes, capacity) *)
}

type t = {
  cap : int;
  rings : (int, ring) Hashtbl.t;  (* domain id -> ring *)
  lock : Mutex.t;  (* guards rings against dump/record races *)
}

let create ?(capacity = 256) () =
  let cap = max 1 capacity in
  { cap; rings = Hashtbl.create 8; lock = Mutex.create () }

let capacity t = t.cap

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let record t line =
  with_lock t (fun () ->
      let dom = (Domain.self () :> int) in
      let ring =
        match Hashtbl.find_opt t.rings dom with
        | Some r -> r
        | None ->
            let r = { lines = Array.make t.cap ""; next = 0; filled = 0 } in
            Hashtbl.replace t.rings dom r;
            r
      in
      ring.lines.(ring.next) <- line;
      ring.next <- (ring.next + 1) mod t.cap;
      if ring.filled < t.cap then ring.filled <- ring.filled + 1)

let install t = Trace.install ~on_line:(record t) ()

let dump t =
  with_lock t (fun () ->
      Hashtbl.fold (fun dom ring acc -> (dom, ring) :: acc) t.rings []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.concat_map (fun (_, ring) ->
             (* Oldest line sits at [next] once the ring has wrapped. *)
             let start = if ring.filled < t.cap then 0 else ring.next in
             List.init ring.filled (fun i ->
                 ring.lines.((start + i) mod t.cap))))
