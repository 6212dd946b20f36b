type action =
  | Pile_into of int
  | Reshuffle
  | Rotate of int

type schedule =
  | Never
  | Every of int
  | At_rounds of int list

let is_faulty_round s r =
  match s with
  | Never -> false
  | Every k ->
      if k < 1 then invalid_arg "Adversary.is_faulty_round: Every k with k < 1";
      r > 0 && r mod k = 0
  | At_rounds rs -> List.mem r rs

let perturb action rng q =
  let n = Config.n q and m = Config.balls q in
  match action with
  | Pile_into bin -> Config.all_in_one ~bin ~n ~m ()
  | Reshuffle -> Config.random rng ~n ~m
  | Rotate k ->
      let src = Config.unsafe_loads q in
      let shift = ((k mod n) + n) mod n in
      Config.of_array (Array.init n (fun u -> src.((u - shift + n) mod n)))

(* Engine-generic driving: with the same creation rng state the
   perturbations draw the same randomness on every engine, so faulty
   trajectories stay bit-identical across engines. *)
let run_with_faults_driver ~schedule ~action ~rounds engine =
  let metrics = Metrics.create ~n:(Engine.n engine) in
  for r = 1 to rounds do
    if is_faulty_round schedule r then
      Engine.set_config engine
        (perturb action (Engine.rng engine) (Engine.config engine));
    Engine.step engine;
    Metrics.observe metrics ~max_load:(Engine.max_load engine)
      ~empty_bins:(Engine.empty_bins engine)
  done;
  metrics

let run_with_faults ~schedule ~action ~rounds process =
  run_with_faults_driver ~schedule ~action ~rounds
    (Engine.T ((module Process), process))
