module Ast = Altune_kernellang.Ast
module Verify = Altune_kernellang.Verify
module Transform = Altune_kernellang.Transform

type node = {
  kernel : Ast.kernel;
  children : (string, node) Hashtbl.t;  (* Verify.step_key -> child *)
}

type stats = {
  nodes : int;
  resolves : int;
  steps_reused : int;
  steps_applied : int;
}

type t = {
  root : node;
  max_nodes : int;
  lock : Mutex.t;
  mutable stats : stats;
}

let mk_node kernel = { kernel; children = Hashtbl.create 4 }

let create ?(max_nodes = 4096) kernel =
  {
    root = mk_node kernel;
    max_nodes;
    lock = Mutex.create ();
    stats = { nodes = 0; resolves = 0; steps_reused = 0; steps_applied = 0 };
  }

let root_kernel t = t.root.kernel

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let stats t = with_lock t (fun () -> t.stats)

let reuse_rate s =
  let total = s.steps_reused + s.steps_applied in
  if total = 0 then 0.0
  else float_of_int s.steps_reused /. float_of_int total

(* Advance one (normalized) step from a walk position.  A cached child is
   a pure lookup; a miss applies the step outside the lock and inserts
   first-wins — if another domain inserted meanwhile, its node is adopted
   (the values are deterministic, so both are byte-identical).  Past
   [max_nodes] the walk falls off the trie and continues uncached. *)
let advance t node_opt kernel step =
  let key = Verify.step_key step in
  let cached =
    match node_opt with
    | None -> None
    | Some n -> with_lock t (fun () -> Hashtbl.find_opt n.children key)
  in
  match cached with
  | Some child ->
      with_lock t (fun () ->
          t.stats <-
            { t.stats with steps_reused = t.stats.steps_reused + 1 });
      Ok (Some child, child.kernel)
  | None -> (
      match Verify.apply_step step kernel with
      | Error e -> Error e
      | Ok k' ->
          let child =
            match node_opt with
            | None -> None
            | Some n ->
                with_lock t (fun () ->
                    match Hashtbl.find_opt n.children key with
                    | Some existing -> Some existing
                    | None ->
                        if t.stats.nodes >= t.max_nodes then None
                        else begin
                          let c = mk_node k' in
                          Hashtbl.replace n.children key c;
                          t.stats <-
                            { t.stats with nodes = t.stats.nodes + 1 };
                          Some c
                        end)
          in
          with_lock t (fun () ->
              t.stats <-
                { t.stats with steps_applied = t.stats.steps_applied + 1 });
          (match child with
          | Some c -> Ok (Some c, c.kernel)
          | None -> Ok (None, k')))

let resolve t steps =
  with_lock t (fun () ->
      t.stats <- { t.stats with resolves = t.stats.resolves + 1 });
  let rec go node_opt kernel = function
    | [] -> Ok kernel
    | s :: rest -> (
        match advance t node_opt kernel s with
        | Error e -> Error e
        | Ok (n', k') -> go n' k' rest)
  in
  go (Some t.root) t.root.kernel (Verify.normalize_steps steps)
