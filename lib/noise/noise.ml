module Rng = Altune_prng.Rng

type channel =
  | Gaussian_rel of float
  | Burst of { probability : float; mu : float; sigma : float }
  | Layout of { buckets : int; amplitude : float }
  | Drift of { period : float; amplitude : float }

type t = { channels : channel list }

let create channels =
  List.iter
    (fun c ->
      match c with
      | Gaussian_rel s ->
          if s < 0.0 then invalid_arg "Noise.create: negative sigma"
      | Burst { probability; sigma; _ } ->
          if probability < 0.0 || probability > 1.0 then
            invalid_arg "Noise.create: burst probability out of [0,1]";
          if sigma < 0.0 then invalid_arg "Noise.create: negative sigma"
      | Layout { buckets; amplitude } ->
          if buckets < 1 then invalid_arg "Noise.create: no layout buckets";
          if amplitude < 0.0 || amplitude >= 1.0 then
            invalid_arg "Noise.create: layout amplitude out of [0,1)"
      | Drift { period; amplitude } ->
          if period <= 0.0 then invalid_arg "Noise.create: period <= 0";
          if amplitude < 0.0 || amplitude >= 1.0 then
            invalid_arg "Noise.create: drift amplitude out of [0,1)")
    channels;
  { channels }

let channels t = t.channels

let scale_gaussian t f =
  {
    channels =
      List.map
        (fun c ->
          match c with
          | Gaussian_rel s -> Gaussian_rel (s *. f)
          | Burst _ | Layout _ | Drift _ -> c)
        t.channels;
  }

(* Deterministic per-bucket layout factor: hash the bucket id into a
   uniform in [-1, 1].  The same bucket always biases a run the same
   way. *)
let layout_factor bucket buckets amplitude =
  let h = Hashtbl.hash (bucket * 2654435761) land 0xFFFFFF in
  let u = (float_of_int h /. float_of_int 0xFFFFFF *. 2.0) -. 1.0 in
  ignore buckets;
  1.0 +. (amplitude *. u)

let sample t ~rng ~run_index ~true_value =
  let factor =
    List.fold_left
      (fun acc c ->
        match c with
        | Gaussian_rel sigma -> acc *. (1.0 +. Rng.normal ~sigma rng)
        | Burst { probability; mu; sigma } ->
            if Rng.bernoulli rng probability then
              acc *. (1.0 +. Rng.lognormal ~mu ~sigma rng)
            else acc
        | Layout { buckets; amplitude } ->
            acc *. layout_factor (Rng.int rng buckets) buckets amplitude
        | Drift { period; amplitude } ->
            acc
            *. (1.0
               +. amplitude
                  *. sin (2.0 *. Float.pi *. float_of_int run_index /. period)
               ))
      1.0 t.channels
  in
  Float.max (1e-9 *. true_value) (true_value *. factor)
