module Spapt = Altune_spapt.Spapt
module Learner = Altune_core.Learner
module Tune_run = Altune_experiments.Tune_run
module Pool = Altune_exec.Pool

type config = {
  name : string;
  run : Tune_run.spec;
  checkpoint_path : string option;
}

type phase = Queued | Live | Done | Closed

type t = {
  config : config;
  bench : Spapt.t;
  pool : Pool.t;
  note : int array -> (unit -> float) -> float;
  mutable phase : phase;
  mutable run : Tune_run.t option;
      (* Live from the first step until the run completes or closes. *)
  mutable final : Learner.progress option;
      (* The run's figures once it completed or closed, when the run
         itself is dropped. *)
}

let create ~bench ~pool ~note config =
  { config; bench; pool; note; phase = Queued; run = None; final = None }

let config t = t.config
let phase t = t.phase
let admit t = if t.phase = Queued then t.phase <- Live

let phase_name = function
  | Queued -> "queued"
  | Live -> "live"
  | Done -> "done"
  | Closed -> "closed"

let step t ~iterations =
  if t.phase <> Live then
    Error
      (Printf.sprintf "session %S is %s, not live" t.config.name
         (phase_name t.phase))
  else if iterations < 1 then Error "iterations must be at least 1"
  else begin
    let run =
      match t.run with
      | Some r -> r
      | None ->
          let r =
            Tune_run.start ~stream:("serve/" ^ t.config.name) ~note:t.note
              ~pool:t.pool t.bench t.config.run
          in
          t.run <- Some r;
          r
    in
    (match Tune_run.step run ~iterations with
    | None -> ()
    | Some _ ->
        t.final <- Some (Tune_run.progress run);
        t.run <- None;
        t.phase <- Done);
    Ok ()
  end

let save_checkpoint t ~path =
  let refuse e = Error (Printf.sprintf "session %S %s" t.config.name e) in
  match (Tune_run.savable t.config.run, t.phase, t.run) with
  | Error e, _, _ -> refuse ("has " ^ e)
  | Ok (), Done, _ -> refuse "already completed"
  | Ok (), Closed, _ -> refuse "is closed"
  | Ok (), _, None -> refuse "has no progress to checkpoint"
  | Ok (), _, Some run -> Tune_run.save run ~path

let view t ~position =
  let v_state : Protocol.session_state =
    match t.phase with
    | Queued -> Protocol.Queued
    | Live -> Protocol.Live
    | Done -> Protocol.Done
    | Closed -> Protocol.Closed
  in
  let base =
    {
      Protocol.v_session = t.config.name;
      v_state;
      v_position = position;
      v_iteration = 0;
      v_examples = 0;
      v_observations = 0;
      v_cost_s = 0.0;
      v_rmse = None;
    }
  in
  let progress =
    match t.run with Some run -> Some (Tune_run.progress run) | None -> t.final
  in
  match progress with
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
  if t.phase <> Closed then begin
    t.phase <- Closed;
    Option.iter (fun r -> t.final <- Some (Tune_run.progress r)) t.run;
    t.run <- None
  end
