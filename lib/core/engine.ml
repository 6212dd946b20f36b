module type S = sig
  type t

  val n : t -> int
  val balls : t -> int
  val round : t -> int
  val step : t -> unit
  val config : t -> Config.t
  val set_config : t -> Config.t -> unit
  val rng : t -> Rbb_prng.Rng.t
  val max_load : t -> int
  val empty_bins : t -> int
end

type t = T : (module S with type t = 'a) * 'a -> t

let n (T ((module E), e)) = E.n e
let balls (T ((module E), e)) = E.balls e
let round (T ((module E), e)) = E.round e
let step (T ((module E), e)) = E.step e
let config (T ((module E), e)) = E.config e
let set_config (T ((module E), e)) q = E.set_config e q
let rng (T ((module E), e)) = E.rng e
let max_load (T ((module E), e)) = E.max_load e
let empty_bins (T ((module E), e)) = E.empty_bins e

let run (T ((module E), e)) ~rounds =
  if rounds < 0 then invalid_arg "Engine.run: rounds < 0";
  for _ = 1 to rounds do
    E.step e
  done

let run_until t ~max_rounds ~stop =
  if max_rounds < 0 then invalid_arg "Engine.run_until: max_rounds < 0";
  match t with
  | T ((module E), e) ->
      let rec go k =
        if stop t then Some (E.round e)
        else if k >= max_rounds then None
        else begin
          E.step e;
          go (k + 1)
        end
      in
      go 0

let run_until_legitimate ?beta t ~max_rounds =
  let threshold = Config.legitimacy_threshold ?beta ~m:(balls t) (n t) in
  run_until t ~max_rounds ~stop:(fun t -> max_load t <= threshold)
