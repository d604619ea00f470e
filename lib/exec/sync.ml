type loc = int

type ops = {
  o_mutex : unit -> int;
  o_lock : int -> unit;
  o_unlock : int -> unit;
  o_cond : unit -> int;
  o_wait : cond:int -> mutex:int -> unit;
  o_broadcast : int -> unit;
  o_spawn : (unit -> unit) -> int;
  o_join : int -> unit;
  o_self : unit -> int;
  o_loc : string -> int;
  o_read : loc -> site:string -> unit;
  o_write : loc -> site:string -> unit;
}

type mutex = Real_mutex of Mutex.t | Virt_mutex of int
type cond = Real_cond of Condition.t | Virt_cond of int
type handle = Real_domain of unit Domain.t | Virt_thread of int

(* Real mode is the resting state: [state] is [None] and the hot-path
   cost of the shim is this one load plus a constructor match.  The ref
   is only ever written by [with_ops], which owns the whole process for
   the duration (model checking is single-domain by construction). *)
let state : ops option ref = ref None

let virtual_mode () = Option.is_some !state

let with_ops ops f =
  (match !state with
  | Some _ -> invalid_arg "Sync.with_ops: virtual mode is not reentrant"
  | None -> ());
  state := Some ops;
  Fun.protect ~finally:(fun () -> state := None) f

let no_ops what =
  invalid_arg
    (Printf.sprintf
       "Sync: virtual %s used outside the Sync.with_ops scope that created it"
       what)

let mutex () =
  match !state with
  | None -> Real_mutex (Mutex.create ())
  | Some o -> Virt_mutex (o.o_mutex ())

let lock = function
  | Real_mutex m -> Mutex.lock m
  | Virt_mutex id -> (
      match !state with Some o -> o.o_lock id | None -> no_ops "mutex")

let unlock = function
  | Real_mutex m -> Mutex.unlock m
  | Virt_mutex id -> (
      match !state with Some o -> o.o_unlock id | None -> no_ops "mutex")

let cond () =
  match !state with
  | None -> Real_cond (Condition.create ())
  | Some o -> Virt_cond (o.o_cond ())

let wait c m =
  match (c, m) with
  | Real_cond c, Real_mutex m -> Condition.wait c m
  | Virt_cond c, Virt_mutex m -> (
      match !state with
      | Some o -> o.o_wait ~cond:c ~mutex:m
      | None -> no_ops "condition")
  | _ -> invalid_arg "Sync.wait: mixed real/virtual condition and mutex"

let broadcast = function
  | Real_cond c -> Condition.broadcast c
  | Virt_cond id -> (
      match !state with Some o -> o.o_broadcast id | None -> no_ops "condition")

let spawn f =
  match !state with
  | None -> Real_domain (Domain.spawn f)
  | Some o -> Virt_thread (o.o_spawn f)

let join = function
  | Real_domain d -> Domain.join d
  | Virt_thread id -> (
      match !state with Some o -> o.o_join id | None -> no_ops "thread")

let self_id () =
  match !state with
  | None -> (Domain.self () :> int)
  | Some o -> o.o_self ()

let loc name =
  match !state with None -> -1 | Some o -> o.o_loc name

let read l ~site =
  match !state with None -> () | Some o -> if l >= 0 then o.o_read l ~site

let write l ~site =
  match !state with None -> () | Some o -> if l >= 0 then o.o_write l ~site
