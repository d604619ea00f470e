module Spapt = Altune_spapt.Spapt
module Learner = Altune_core.Learner
module Tune_run = Altune_experiments.Tune_run
module Pool = Altune_exec.Pool
module Events = Altune_obs.Events

type config = {
  name : string;
  run : Tune_run.spec;
  checkpoint_path : string option;
}

type phase = Protocol.session_state = Queued | Live | Done | Closed

(* The lifecycle: one case per phase, holding what that phase has. *)
type state =
  | Queued
  | Live of Tune_run.t option
  | Done of Learner.progress
  | Closed of Learner.progress option

type t = {
  config : config;
  bench : Spapt.t;
  pool : Pool.t;
  note : int array -> (unit -> float) -> float;
  events : Events.sink option;
  mutable state : state;
}

let create ?events ~bench ~pool ~note config =
  { config; bench; pool; note; events; state = Queued }

let config t = t.config

let phase t : phase =
  match t.state with
  | Queued -> Queued
  | Live _ -> Live
  | Done _ -> Done
  | Closed _ -> Closed

let admit t = match t.state with Queued -> t.state <- Live None | _ -> ()

let phase_name : phase -> string = function
  | Queued -> "queued"
  | Live -> "live"
  | Done -> "done"
  | Closed -> "closed"

let step t ~iterations =
  match t.state with
  | Queued | Done _ | Closed _ ->
      Error
        (Printf.sprintf "session %S is %s, not live" t.config.name
           (phase_name (phase t)))
  | Live _ when iterations < 1 -> Error "iterations must be at least 1"
  | Live started ->
      let run =
        match started with
        | Some r -> r
        | None ->
            let r =
              Tune_run.start ?events:t.events
                ~stream:("serve/" ^ t.config.name) ~note:t.note ~pool:t.pool
                t.bench t.config.run
            in
            t.state <- Live (Some r);
            r
      in
      (match Tune_run.step run ~iterations with
      | None -> ()
      | Some _ -> t.state <- Done (Tune_run.progress run));
      Ok ()

let save_checkpoint t ~path =
  let refuse e = Error (Printf.sprintf "session %S %s" t.config.name e) in
  match t.state with
  | Done _ -> refuse "already completed"
  | Closed _ -> refuse "is closed"
  | Queued | Live None -> refuse "has no progress to checkpoint"
  | Live (Some run) -> Tune_run.save run ~path

let progress t =
  match t.state with
  | Live (Some run) -> Some (Tune_run.progress run)
  | Done p -> Some p
  | Closed p -> p
  | Queued | Live None -> None

let view t ~position =
  let base =
    {
      Protocol.v_session = t.config.name;
      v_state = phase t;
      v_position = position;
      v_iteration = 0;
      v_examples = 0;
      v_observations = 0;
      v_cost_s = 0.0;
      v_rmse = None;
    }
  in
  match progress t with
  | None -> base
  | Some p ->
      {
        base with
        v_iteration = p.pr_iteration;
        v_examples = p.pr_examples;
        v_observations = p.pr_observations;
        v_cost_s = p.pr_cost_s;
        v_rmse = p.pr_rmse;
      }

let close t =
  match t.state with Closed _ -> () | _ -> t.state <- Closed (progress t)
