type engine = Xoshiro | Pcg | Splitmix

type state =
  | Sx of Xoshiro256.t
  | Sp of Pcg32.t
  | Ss of Splitmix64.t

type t = { state : state; engine : engine; seed : int64 }

let create ?(engine = Xoshiro) ~seed () =
  let state =
    match engine with
    | Xoshiro -> Sx (Xoshiro256.create ~seed)
    | Pcg -> Sp (Pcg32.create ~seed)
    | Splitmix -> Ss (Splitmix64.create ~seed)
  in
  { state; engine; seed }

let engine t = t.engine
let seed t = t.seed

let copy t =
  let state =
    match t.state with
    | Sx g -> Sx (Xoshiro256.copy g)
    | Sp g -> Sp (Pcg32.copy g)
    | Ss g -> Ss (Splitmix64.copy g)
  in
  { t with state }

type snapshot = { snap_engine : engine; snap_seed : int64; words : int64 array }

let snapshot t =
  let words =
    match t.state with
    | Sx g -> Xoshiro256.state g
    | Sp g -> Pcg32.state g
    | Ss g -> Splitmix64.state g
  in
  { snap_engine = t.engine; snap_seed = t.seed; words }

let of_snapshot s =
  let state =
    match s.snap_engine with
    | Xoshiro -> Sx (Xoshiro256.of_state s.words)
    | Pcg -> Sp (Pcg32.of_state s.words)
    | Splitmix -> Ss (Splitmix64.of_state s.words)
  in
  { state; engine = s.snap_engine; seed = s.snap_seed }

let next_u64 t =
  match t.state with
  | Sx g -> Xoshiro256.next_u64 g
  | Sp g -> Pcg32.next_u64 g
  | Ss g -> Splitmix64.next_u64 g

let fill_int62 t a ~pos ~len =
  match t.state with
  | Sx g -> Xoshiro256.fill_int62 g a ~pos ~len
  | Sp g -> Pcg32.fill_int62 g a ~pos ~len
  | Ss g -> Splitmix64.fill_int62 g a ~pos ~len

let split t =
  match t.state with
  | Sx g ->
      (* Jumped copy: non-overlapping for 2^128 draws; then scramble the
         parent so repeated splits give distinct children. *)
      let child = Xoshiro256.copy g in
      Xoshiro256.jump child;
      ignore (Xoshiro256.next_u64 g);
      { state = Sx child; engine = Xoshiro; seed = Splitmix64.mix t.seed }
  | Sp _ | Ss _ ->
      let child_seed = Splitmix64.mix (next_u64 t) in
      create ~engine:t.engine ~seed:child_seed ()

(* One word as an unboxed native int, laid out as
   [Xoshiro256.next_bits]: [lsr 1] gives its top 62 bits, [land 1] its
   low bit.  Each derived draw below is defined on the bits of the word
   [next_u64] would return, so it consumes and returns exactly what the
   same rule applied to [next_u64] would (the known-answer tests pin
   this). *)
let[@inline] next_bits t =
  match t.state with
  | Sx g -> Xoshiro256.next_bits g
  | Sp g -> Pcg32.next_bits g
  | Ss g -> Splitmix64.next_bits g

let bits30 t = next_bits t lsr 33

let int_below t n =
  if n <= 0 then invalid_arg "Rng.int_below: bound must be positive";
  if n = 1 then 0
  else begin
    (* Smallest all-ones mask covering [n - 1], then rejection on the
       word's top 62 bits: unbiased and at most one expected retry. *)
    let m = n - 1 in
    let m = m lor (m lsr 1) in
    let m = m lor (m lsr 2) in
    let m = m lor (m lsr 4) in
    let m = m lor (m lsr 8) in
    let m = m lor (m lsr 16) in
    let mask = m lor (m lsr 32) in
    let v = ref ((next_bits t lsr 1) land mask) in
    while !v >= n do
      v := (next_bits t lsr 1) land mask
    done;
    !v
  end

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int_below t (hi - lo + 1)

let float_unit t =
  (* 53 high bits of the draw, scaled by 2^-53: uniform on [0,1). *)
  float_of_int (next_bits t lsr 10) *. 0x1p-53

let bool t = next_bits t land 1 = 1

let engine_name = function
  | Xoshiro -> "xoshiro256**"
  | Pcg -> "pcg32"
  | Splitmix -> "splitmix64"

let engine_of_name = function
  | "xoshiro256**" -> Some Xoshiro
  | "pcg32" -> Some Pcg
  | "splitmix64" -> Some Splitmix
  | _ -> None

let pp ppf t = Format.fprintf ppf "%s(seed=%Ld)" (engine_name t.engine) t.seed
