type curve = Learner.eval_point list

let average_curves curves =
  match curves with
  | [] -> []
  | first :: _ ->
      let n = List.length first in
      let shortest =
        List.fold_left (fun acc c -> min acc (List.length c)) n curves
      in
      let arrays = List.map Array.of_list curves in
      List.init shortest (fun i ->
          let points =
            List.map (fun (a : Learner.eval_point array) -> a.(i)) arrays
          in
          let k = float_of_int (List.length points) in
          let avg f =
            List.fold_left (fun acc p -> acc +. f p) 0.0 points /. k
          in
          {
            Learner.iteration = (List.hd points).iteration;
            examples =
              int_of_float
                (Float.round (avg (fun p -> float_of_int p.examples)));
            observations =
              int_of_float
                (Float.round (avg (fun p -> float_of_int p.observations)));
            cost_seconds = avg (fun p -> p.cost_seconds);
            rmse = avg (fun p -> p.rmse);
          })

let cost_to_reach curve err =
  let rec go = function
    | [] -> None
    | (p : Learner.eval_point) :: rest ->
        if p.rmse <= err then Some p.cost_seconds else go rest
  in
  go curve

let min_rmse curve =
  List.fold_left
    (fun acc (p : Learner.eval_point) -> Float.min acc p.rmse)
    infinity curve

type comparison = {
  lowest_common_rmse : float;
  cost_baseline : float;
  cost_ours : float;
  speedup : float;
}

let compare_curves ~baseline ~ours =
  let lowest_common_rmse = Float.max (min_rmse baseline) (min_rmse ours) in
  let cost_of curve =
    match cost_to_reach curve lowest_common_rmse with
    | Some c -> c
    | None ->
        (* By construction both curves reach the common level; floating
           ties can still slip through, so fall back to the final cost. *)
        (match List.rev curve with
        | [] -> nan
        | last :: _ -> last.Learner.cost_seconds)
  in
  let cost_baseline = cost_of baseline in
  let cost_ours = cost_of ours in
  {
    lowest_common_rmse;
    cost_baseline;
    cost_ours;
    speedup = cost_baseline /. cost_ours;
  }
