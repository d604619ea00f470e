module Rng = Altune_prng.Rng

type space = { dim : int; cardinality : int -> int }

type method_ =
  | Random_sampling of int
  | Hill_climbing of { restarts : int; max_steps : int }

type result = { best : int array; predicted : float; evaluations : int }

let space_of_cardinalities cards =
  { dim = Array.length cards; cardinality = (fun i -> cards.(i)) }

let validate space =
  if space.dim <= 0 then invalid_arg "Search: empty space";
  for i = 0 to space.dim - 1 do
    if space.cardinality i <= 0 then
      invalid_arg "Search: knob with no values"
  done

let random_config ~rng space =
  Array.init space.dim (fun i -> Rng.int rng (space.cardinality i))

let minimize ~rng space ~predict method_ =
  validate space;
  let evaluations = ref 0 in
  let eval c =
    incr evaluations;
    predict c
  in
  let best = ref (random_config ~rng space) in
  let best_score = ref (eval !best) in
  let consider c score =
    if score < !best_score then begin
      best := c;
      best_score := score
    end
  in
  (match method_ with
  | Random_sampling n ->
      if n < 1 then invalid_arg "Search: need at least one draw";
      for _ = 2 to n do
        let c = random_config ~rng space in
        consider c (eval c)
      done
  | Hill_climbing { restarts; max_steps } ->
      if restarts < 1 || max_steps < 1 then
        invalid_arg "Search: hill climbing needs positive parameters";
      for _ = 1 to restarts do
        let current = ref (random_config ~rng space) in
        let current_score = ref (eval !current) in
        consider !current !current_score;
        (* Steepest single-knob descent with a step budget. *)
        let steps = ref 0 in
        let improved = ref true in
        while !improved && !steps < max_steps do
          improved := false;
          incr steps;
          let best_move = ref None in
          for i = 0 to space.dim - 1 do
            let card = space.cardinality i in
            List.iter
              (fun v ->
                if v >= 0 && v < card && v <> !current.(i) then begin
                  let c = Array.copy !current in
                  c.(i) <- v;
                  let score = eval c in
                  match !best_move with
                  | Some (_, s) when s <= score -> ()
                  | Some _ | None ->
                      if score < !current_score then
                        best_move := Some (c, score)
                end)
              [ !current.(i) - 1; !current.(i) + 1; 0; card - 1 ]
          done;
          match !best_move with
          | Some (c, score) ->
              current := c;
              current_score := score;
              consider c score;
              improved := true
          | None -> ()
        done
      done);
  { best = !best; predicted = !best_score; evaluations = !evaluations }
