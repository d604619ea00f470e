let check predicted observed name =
  let n = Array.length predicted in
  if n = 0 then invalid_arg ("Metrics." ^ name ^ ": empty input");
  if n <> Array.length observed then
    invalid_arg ("Metrics." ^ name ^ ": length mismatch");
  n

let rmse ~predicted ~observed =
  let n = check predicted observed "rmse" in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let d = predicted.(i) -. observed.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int n)
