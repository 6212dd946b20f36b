(* The state word lives unboxed in an 8-byte buffer: a [mutable int64]
   field would box it on every store. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let g = Bytes.create 8 in
  set g 0 seed;
  g

let copy = Bytes.copy
let state g = [| get g 0 |]

let of_state s =
  if Array.length s <> 1 then
    invalid_arg "Splitmix64.of_state: expected 1 state word";
  create ~seed:s.(0)

let[@inline] next g =
  let s = Int64.add (get g 0) golden_gamma in
  set g 0 s;
  mix s

let next_u64 g = next g

let next_bits g =
  let r = next g in
  Int64.to_int (Int64.shift_right_logical r 1) land lnot 1
  lor (Int64.to_int r land 1)

let fill_int62 g a ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg "Splitmix64.fill_int62: range out of bounds";
  (* A register-resident copy of the state word for the whole batch. *)
  let s = ref (get g 0) in
  for i = pos to pos + len - 1 do
    s := Int64.add !s golden_gamma;
    Array.unsafe_set a i (Int64.to_int (mix !s) land max_int)
  done;
  set g 0 !s
