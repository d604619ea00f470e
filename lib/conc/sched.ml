module Sync = Altune_exec.Sync

type op =
  | O_start
  | O_lock of int
  | O_unlock of int
  | O_wait of int * int
  | O_reacquire of int
  | O_broadcast of int
  | O_spawn
  | O_join of int
  | O_read of int * string
  | O_write of int * string

let op_to_string = function
  | O_start -> "start"
  | O_lock m -> Printf.sprintf "lock m%d" m
  | O_unlock m -> Printf.sprintf "unlock m%d" m
  | O_wait (c, m) -> Printf.sprintf "wait c%d (releasing m%d)" c m
  | O_reacquire m -> Printf.sprintf "reacquire m%d" m
  | O_broadcast c -> Printf.sprintf "broadcast c%d" c
  | O_spawn -> "spawn"
  | O_join u -> Printf.sprintf "join thread %d" u
  | O_read (l, site) -> Printf.sprintf "read loc%d (%s)" l site
  | O_write (l, site) -> Printf.sprintf "write loc%d (%s)" l site

(* Objects an operation touches, for the independence relation. *)
type obj = Mu of int | Co of int | Ce of int | Any

let objects = function
  | O_lock m | O_unlock m | O_reacquire m -> [ Mu m ]
  | O_wait (c, m) -> [ Co c; Mu m ]
  | O_broadcast c -> [ Co c ]
  | O_read (l, _) | O_write (l, _) -> [ Ce l ]
  | O_start | O_spawn | O_join _ -> [ Any ]

let independent a b =
  let oa = objects a and ob = objects b in
  (not (List.mem Any oa))
  && (not (List.mem Any ob))
  &&
  (* Two reads of the same cell commute; anything else sharing an
     object does not. *)
  let reads_commute =
    match (a, b) with O_read _, O_read _ -> true | _ -> false
  in
  reads_commute || not (List.exists (fun o -> List.mem o ob) oa)

exception Prune

type deadlock_entry = { d_tid : int; d_pending : string }
type deadlock = deadlock_entry list

type outcome = {
  result : (unit, exn) Result.t;
  races : Racecheck.race list;
  deadlock : deadlock option;
  steps : int;
  trace_hash : int;
  pruned : bool;
}

(* --- Effects performed by the code under test -------------------------- *)

type _ Effect.t +=
  | E_lock : int -> unit Effect.t
  | E_unlock : int -> unit Effect.t
  | E_wait : (int * int) -> unit Effect.t
  | E_broadcast : int -> unit Effect.t
  | E_spawn : (unit -> unit) -> int Effect.t
  | E_join : int -> unit Effect.t
  | E_read : (int * string) -> unit Effect.t
  | E_write : (int * string) -> unit Effect.t

type status =
  | Ready of op * (unit -> unit)
      (* Pending operation plus the action that performs it (updating
         scheduler and detector state) and resumes the thread up to its
         next effect. *)
  | Sleeping of int * int * (unit -> unit)
      (* cond, mutex; the action re-pends the mutex reacquisition. *)
  | Done_ok
  | Done_exn of exn

type tstate = { tid : int; mutable status : status }

type state = {
  mutable threads : tstate list;  (* newest first; small counts *)
  mutable n_threads : int;
  mutable n_mutexes : int;
  mutable n_conds : int;
  mutable n_locs : int;
  loc_names : (int, string) Hashtbl.t;
  mutable owner : (int * int) list;  (* mutex -> owning tid *)
  mutable current : int;
  rc : Racecheck.t;
  mutable trace_hash : int;
  mutable steps : int;
}

let thread st tid = List.find (fun t -> t.tid = tid) st.threads

let set_owner st m tid =
  st.owner <- (m, tid) :: List.remove_assoc m st.owner

let clear_owner st m = st.owner <- List.remove_assoc m st.owner
let owner st m = List.assoc_opt m st.owner

let mix_trace st tid op =
  (* Order-sensitive fold so distinct interleavings hash apart. *)
  let h = Hashtbl.hash (tid, op) in
  st.trace_hash <- (st.trace_hash * 0x01000193) lxor h land max_int

(* Install one thread's effect handler and run its body to the first
   suspension point (or completion). *)
let rec start_thread st tid body =
  let t = thread st tid in
  let open Effect.Deep in
  let pend op action = t.status <- Ready (op, action) in
  match_with body ()
    {
      retc = (fun () -> t.status <- Done_ok);
      exnc = (fun e -> t.status <- Done_exn e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_lock m ->
              Some
                (fun (k : (a, unit) continuation) ->
                  pend (O_lock m) (fun () ->
                      set_owner st m tid;
                      Racecheck.acquire st.rc ~tid ~lock:m;
                      continue k ()))
          | E_unlock m ->
              Some
                (fun (k : (a, unit) continuation) ->
                  pend (O_unlock m) (fun () ->
                      clear_owner st m;
                      Racecheck.release st.rc ~tid ~lock:m;
                      continue k ()))
          | E_wait (c, m) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  pend
                    (O_wait (c, m))
                    (fun () ->
                      (* Atomically release the mutex and sleep; a wakeup
                         re-pends the reacquisition as its own scheduling
                         point, exactly like the real primitive. *)
                      clear_owner st m;
                      Racecheck.release st.rc ~tid ~lock:m;
                      t.status <-
                        Sleeping
                          ( c,
                            m,
                            fun () ->
                              pend (O_reacquire m) (fun () ->
                                  set_owner st m tid;
                                  Racecheck.acquire st.rc ~tid ~lock:m;
                                  continue k ()) )))
          | E_broadcast c ->
              Some
                (fun (k : (a, unit) continuation) ->
                  pend (O_broadcast c) (fun () ->
                      wake_sleepers st c;
                      continue k ()))
          | E_spawn f ->
              Some
                (fun (k : (a, unit) continuation) ->
                  pend O_spawn (fun () ->
                      let child = st.n_threads in
                      st.n_threads <- child + 1;
                      let ct = { tid = child; status = Done_ok } in
                      st.threads <- ct :: st.threads;
                      Racecheck.fork st.rc ~parent:tid ~child;
                      ct.status <-
                        Ready (O_start, fun () -> start_thread st child f);
                      continue k child))
          | E_join u ->
              Some
                (fun (k : (a, unit) continuation) ->
                  pend (O_join u) (fun () ->
                      Racecheck.join st.rc ~parent:tid ~child:u;
                      match (thread st u).status with
                      | Done_ok -> continue k ()
                      | Done_exn e -> discontinue k e
                      | Ready _ | Sleeping _ ->
                          invalid_arg "Sched: join executed on a live thread"))
          | E_read (l, site) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  pend
                    (O_read (l, site))
                    (fun () ->
                      Racecheck.read st.rc ~tid ~loc:l
                        ~name:(loc_name st l) ~site;
                      continue k ()))
          | E_write (l, site) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  pend
                    (O_write (l, site))
                    (fun () ->
                      Racecheck.write st.rc ~tid ~loc:l
                        ~name:(loc_name st l) ~site;
                      continue k ()))
          | _ -> None);
    }

and wake_sleepers st c =
  List.filter
    (fun t -> match t.status with Sleeping (c', _, _) -> c' = c | _ -> false)
    st.threads
  |> List.sort (fun a b -> compare a.tid b.tid)
  |> List.iter (fun t -> wake st t)

and wake _st t =
  match t.status with
  | Sleeping (_, _, rearm) -> rearm ()
  | _ -> assert false

and loc_name st l =
  match Hashtbl.find_opt st.loc_names l with
  | Some n -> n
  | None -> Printf.sprintf "loc%d" l

let enabled_op st = function
  | O_lock m | O_reacquire m -> owner st m = None
  | O_join u -> (
      match (thread st u).status with
      | Done_ok | Done_exn _ -> true
      | Ready _ | Sleeping _ -> false)
  | _ -> true

let run ?(max_steps = 200_000) ~policy body =
  let st =
    {
      threads = [];
      n_threads = 1;
      n_mutexes = 0;
      n_conds = 0;
      n_locs = 0;
      loc_names = Hashtbl.create 32;
      owner = [];
      current = 0;
      rc = Racecheck.create ();
      trace_hash = 0;
      steps = 0;
    }
  in
  let ops : Sync.ops =
    {
      o_mutex =
        (fun () ->
          let m = st.n_mutexes in
          st.n_mutexes <- m + 1;
          m);
      o_lock = (fun m -> Effect.perform (E_lock m));
      o_unlock = (fun m -> Effect.perform (E_unlock m));
      o_cond =
        (fun () ->
          let c = st.n_conds in
          st.n_conds <- c + 1;
          c);
      o_wait = (fun ~cond ~mutex -> Effect.perform (E_wait (cond, mutex)));
      o_broadcast = (fun c -> Effect.perform (E_broadcast c));
      o_spawn = (fun f -> Effect.perform (E_spawn f));
      o_join = (fun u -> Effect.perform (E_join u));
      o_self = (fun () -> st.current);
      o_loc =
        (fun name ->
          let l = st.n_locs in
          st.n_locs <- l + 1;
          Hashtbl.replace st.loc_names l name;
          l);
      o_read = (fun l ~site -> Effect.perform (E_read (l, site)));
      o_write = (fun l ~site -> Effect.perform (E_write (l, site)));
    }
  in
  let result =
    ref (Result.Error (Failure "Sched: scenario did not complete"))
  in
  let deadlock = ref None in
  let pruned = ref false in
  Sync.with_ops ops (fun () ->
      let main = { tid = 0; status = Done_ok } in
      st.threads <- [ main ];
      Racecheck.start_thread st.rc ~tid:0;
      main.status <-
        Ready
          ( O_start,
            fun () ->
              start_thread st 0 (fun () ->
                  match body () with
                  | () -> result := Ok ()
                  | exception e -> result := Error e) );
      let rec loop () =
        let live =
          List.filter
            (fun t ->
              match t.status with Ready _ | Sleeping _ -> true | _ -> false)
            st.threads
        in
        if live <> [] then begin
          let enabled =
            List.filter_map
              (fun t ->
                match t.status with
                | Ready (op, _) when enabled_op st op -> Some t.tid
                | _ -> None)
              live
          in
          let enabled = List.sort compare enabled in
          if enabled = [] then
            deadlock :=
              Some
                (List.map
                   (fun t ->
                     {
                       d_tid = t.tid;
                       d_pending =
                         (match t.status with
                         | Ready (op, _) ->
                             "blocked on " ^ op_to_string op
                         | Sleeping (c, _, _) ->
                             Printf.sprintf "asleep in wait on c%d" c
                         | _ -> "?");
                     })
                   (List.sort (fun a b -> compare a.tid b.tid) live))
          else if st.steps >= max_steps then
            result :=
              Error
                (Failure
                   (Printf.sprintf
                      "Sched: exceeded %d steps (livelock or runaway \
                       scenario)"
                      max_steps))
          else begin
            let pending tid =
              match (thread st tid).status with
              | Ready (op, _) -> op
              | _ -> invalid_arg "Sched: pending of a non-ready thread"
            in
            match policy ~step:st.steps ~enabled ~pending with
            | exception Prune -> pruned := true
            | tid ->
                let t = thread st tid in
                (match t.status with
                | Ready (op, action) ->
                    mix_trace st tid op;
                    st.steps <- st.steps + 1;
                    st.current <- tid;
                    action ()
                | _ -> invalid_arg "Sched: policy chose a non-ready thread");
                loop ()
          end
        end
      in
      loop ());
  {
    result = (if !pruned then Error Prune else !result);
    races = Racecheck.races st.rc;
    deadlock = !deadlock;
    steps = st.steps;
    trace_hash = st.trace_hash;
    pruned = !pruned;
  }
