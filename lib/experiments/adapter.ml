module Spapt = Altune_spapt.Spapt
module Verify = Altune_kernellang.Verify
module Problem = Altune_core.Problem

let problem_of ?(verify = false) ?pool bench =
  (* One audit per distinct configuration: measurements repeat configs
     (the fixed plan measures each 35 times), the audit result does not
     change between repeats. *)
  let audited : (int array, unit) Hashtbl.t = Hashtbl.create 64 in
  let gate c =
    if not (Hashtbl.mem audited c) then begin
      let verdict = Spapt.verify_config bench c in
      if not (Verify.ok verdict) then
        failwith
          (Format.asprintf
             "Adapter: unsound transformation recipe rejected:@\n%a"
             Verify.pp_verdict verdict);
      Hashtbl.replace audited (Array.copy c) ()
    end
  in
  {
    Problem.name = Spapt.name bench;
    dim = Spapt.dim bench;
    space_size = Spapt.space_size bench;
    random_config = (fun rng -> Spapt.random_config bench rng);
    features = (fun c -> Spapt.features bench c);
    measure =
      (fun ~rng ~run_index c ->
        if verify then gate c;
        Spapt.measure bench ~rng ~run_index c);
    compile_seconds = (fun c -> Spapt.compile_seconds bench c);
    prepare = (fun cs -> Spapt.prepare ?pool bench cs);
  }
