(* The 64-bit state word and the odd increment live unboxed at byte
   offsets 0 and 8 of a 16-byte buffer: a [mutable int64] field would
   box the state on every store. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let multiplier = 6364136223846793005L

let[@inline] step g =
  set g 0 (Int64.add (Int64.mul (get g 0) multiplier) (get g 8))

let make ~state ~inc =
  let g = Bytes.create 16 in
  set g 0 state;
  set g 8 inc;
  g

let create_stream ~seed ~stream =
  (* The increment must be odd; [2*stream + 1] maps each stream id to a
     distinct odd increment, the construction from the reference pcg32. *)
  let g = make ~state:0L ~inc:(Int64.logor (Int64.shift_left stream 1) 1L) in
  step g;
  set g 0 (Int64.add (get g 0) seed);
  step g;
  g

let create ~seed = create_stream ~seed ~stream:0xDA3E39CB94B95BDBL
let copy = Bytes.copy
let state g = [| get g 0; get g 8 |]

let of_state s =
  if Array.length s <> 2 then invalid_arg "Pcg32.of_state: expected 2 state words";
  if Int64.logand s.(1) 1L = 0L then
    invalid_arg "Pcg32.of_state: increment must be odd";
  make ~state:s.(0) ~inc:s.(1)

(* One XSH-RR output as a native int in [0, 2^32): xorshift the old
   state, then rotate right by its top 5 bits. *)
let[@inline] next32 g =
  let old = get g 0 in
  step g;
  let x =
    Int64.to_int
      (Int64.shift_right_logical (Int64.logxor (Int64.shift_right_logical old 18) old) 27)
    land 0xFFFF_FFFF
  in
  let rot = Int64.to_int (Int64.shift_right_logical old 59) in
  ((x lsr rot) lor (x lsl (32 - rot))) land 0xFFFF_FFFF

let next_u32 g = Int32.of_int (next32 g)

(* Two outputs, the first in the high half. *)
let[@inline] next g =
  let hi = next32 g in
  let lo = next32 g in
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let next_u64 g = next g

let next_bits g =
  let r = next g in
  Int64.to_int (Int64.shift_right_logical r 1) land lnot 1
  lor (Int64.to_int r land 1)

let fill_int62 g a ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg "Pcg32.fill_int62: range out of bounds";
  for i = pos to pos + len - 1 do
    Array.unsafe_set a i (Int64.to_int (next g) land max_int)
  done
