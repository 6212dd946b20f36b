(* The state is four 64-bit words s0..s3 at byte offsets 0, 8, 16 and 24
   of a 32-byte buffer, read and written unboxed.  A record of
   [mutable int64] fields would box every word on every store. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let make s0 s1 s2 s3 =
  let g = Bytes.create 32 in
  set g 0 s0;
  set g 8 s1;
  set g 16 s2;
  set g 24 s3;
  g

let create ~seed =
  let sm = Splitmix64.create ~seed in
  let s0 = Splitmix64.next_u64 sm in
  let s1 = Splitmix64.next_u64 sm in
  let s2 = Splitmix64.next_u64 sm in
  let s3 = Splitmix64.next_u64 sm in
  (* An all-zero state is a fixed point of the transition; SplitMix64 can
     only produce it with probability 2^-256, but guard anyway. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then make 1L 2L 3L 4L
  else make s0 s1 s2 s3

let copy = Bytes.copy
let state g = [| get g 0; get g 8; get g 16; get g 24 |]

let of_state s =
  if Array.length s <> 4 then
    invalid_arg "Xoshiro256.of_state: expected 4 state words";
  if s.(0) = 0L && s.(1) = 0L && s.(2) = 0L && s.(3) = 0L then
    invalid_arg "Xoshiro256.of_state: all-zero state is invalid";
  make s.(0) s.(1) s.(2) s.(3)

(* One step of the transition.  Inlined into each caller, so the state
   words and the result stay in registers and nothing is allocated
   unless the caller boxes the result. *)
let[@inline] next g =
  let open Int64 in
  let s0 = get g 0 and s1 = get g 8 and s2 = get g 16 and s3 = get g 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set g 0 s0;
  set g 8 s1;
  set g 16 (logxor s2 t);
  set g 24 (rotl s3 45);
  result

let next_u64 g = next g

let next_bits g =
  let r = next g in
  Int64.to_int (Int64.shift_right_logical r 1) land lnot 1
  lor (Int64.to_int r land 1)

let fill_int62 g a ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg "Xoshiro256.fill_int62: range out of bounds";
  (* The whole batch runs on local copies of the state words, which the
     compiler keeps in registers: [next] reloads and stores them through
     memory on every draw. *)
  let s0 = ref (get g 0) and s1 = ref (get g 8) in
  let s2 = ref (get g 16) and s3 = ref (get g 24) in
  for i = pos to pos + len - 1 do
    let result = Int64.mul (rotl (Int64.mul !s1 5L) 7) 9L in
    let t = Int64.shift_left !s1 17 in
    s2 := Int64.logxor !s2 !s0;
    s3 := Int64.logxor !s3 !s1;
    s1 := Int64.logxor !s1 !s2;
    s0 := Int64.logxor !s0 !s3;
    s2 := Int64.logxor !s2 t;
    s3 := rotl !s3 45;
    Array.unsafe_set a i (Int64.to_int result land max_int)
  done;
  set g 0 !s0;
  set g 8 !s1;
  set g 16 !s2;
  set g 24 !s3

(* Jump polynomial coefficients from the reference implementation
   (xoshiro256plusplus.c / xoshiro256starstar.c, same state transition). *)
let jump_coeffs =
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL;
     0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump g =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun coeff ->
      for b = 0 to 63 do
        if Int64.logand coeff (Int64.shift_left 1L b) <> 0L then
          for w = 0 to 3 do
            set acc (8 * w) (Int64.logxor (get acc (8 * w)) (get g (8 * w)))
          done;
        ignore (next g)
      done)
    jump_coeffs;
  Bytes.blit acc 0 g 0 32
