(* Regression check for process-wide state first touched by two domains
   at once.  The execution engine's instrument handles must exist before
   any task runs: a handle created on first use (a [lazy] value) can be
   forced by two domains at the same moment, which raises
   [CamlinternalLazy.Undefined] or hangs.  That window opens once per
   process, so every attempt is a fresh child process doing one 2-domain
   [Pool.map] whose two tasks leave a spin barrier together — both
   domains then reach the task-completion instruments at the same
   instant.

   Usage: domain_race.exe [N] runs N children (default 50) and exits 1
   if any child fails or outlives its time limit. *)

module Pool = Altune_exec.Pool

let child () =
  let pool = Pool.create ~jobs:2 () in
  let arrived = Atomic.make 0 in
  let rendezvous x =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 do
      Domain.cpu_relax ()
    done;
    x
  in
  let r = Pool.map pool rendezvous [ 1; 2 ] in
  Pool.shutdown pool;
  if r <> [ 1; 2 ] then exit 2

let time_limit_s = 5.0

(* Run one child; [None] on a clean exit, otherwise what went wrong. *)
let attempt () =
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "--child" |] Unix.stdin Unix.stdout
      Unix.stderr
  in
  let deadline = Unix.gettimeofday () +. time_limit_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Some (Printf.sprintf "no exit within %.0fs" time_limit_s)
        end
        else begin
          Unix.sleepf 0.002;
          wait ()
        end
    | _, Unix.WEXITED 0 -> None
    | _, Unix.WEXITED c -> Some (Printf.sprintf "exit code %d" c)
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Some (Printf.sprintf "signal %d" s)
  in
  wait ()

let () =
  match Sys.argv with
  | [| _; "--child" |] -> child ()
  | _ ->
      let n =
        if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 50
      in
      let failures =
        List.filter_map
          (fun i -> Option.map (fun e -> (i, e)) (attempt ()))
          (List.init n Fun.id)
      in
      List.iter
        (fun (i, e) -> Printf.eprintf "domain_race: child %d: %s\n" i e)
        failures;
      if failures <> [] then begin
        Printf.eprintf "domain_race: %d of %d fresh processes failed\n"
          (List.length failures) n;
        exit 1
      end
