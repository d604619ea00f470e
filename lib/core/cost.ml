type t = {
  mutable run_seconds : float;
  mutable compile_seconds : float;
  mutable failure_seconds : float;
  mutable runs : int;
  mutable failures : int;
  compiled : (string, unit) Hashtbl.t;
}

let create () =
  {
    run_seconds = 0.0;
    compile_seconds = 0.0;
    failure_seconds = 0.0;
    runs = 0;
    failures = 0;
    compiled = Hashtbl.create 256;
  }

let charge_run t seconds =
  if seconds < 0.0 then invalid_arg "Cost.charge_run: negative duration";
  t.run_seconds <- t.run_seconds +. seconds;
  t.runs <- t.runs + 1

let charge_compile t ~key seconds =
  if not (Hashtbl.mem t.compiled key) then begin
    Hashtbl.replace t.compiled key ();
    t.compile_seconds <- t.compile_seconds +. seconds
  end

let charge_failure t seconds =
  if seconds < 0.0 then invalid_arg "Cost.charge_failure: negative duration";
  t.failure_seconds <- t.failure_seconds +. seconds;
  t.failures <- t.failures + 1

let run_seconds t = t.run_seconds
let compile_seconds t = t.compile_seconds
let failure_seconds t = t.failure_seconds
let total_seconds t = t.run_seconds +. t.compile_seconds +. t.failure_seconds
let runs t = t.runs
let failures t = t.failures

type snapshot = {
  snap_run_seconds : float;
  snap_compile_seconds : float;
  snap_failure_seconds : float;
  snap_runs : int;
  snap_failures : int;
  snap_compiled : string list;  (** in insertion-irrelevant (sorted) order *)
}

let snapshot t =
  {
    snap_run_seconds = t.run_seconds;
    snap_compile_seconds = t.compile_seconds;
    snap_failure_seconds = t.failure_seconds;
    snap_runs = t.runs;
    snap_failures = t.failures;
    snap_compiled =
      List.sort String.compare
        (Hashtbl.fold (fun k () acc -> k :: acc) t.compiled []);
  }

let of_snapshot s =
  let t = create () in
  t.run_seconds <- s.snap_run_seconds;
  t.compile_seconds <- s.snap_compile_seconds;
  t.failure_seconds <- s.snap_failure_seconds;
  t.runs <- s.snap_runs;
  t.failures <- s.snap_failures;
  List.iter (fun k -> Hashtbl.replace t.compiled k ()) s.snap_compiled;
  t
