(** xoshiro256** pseudo-random generator (Blackman & Vigna, 2018).

    256-bit state, period [2^256 - 1], excellent statistical quality and
    a cheap [jump] function that advances the stream by [2^128] steps,
    giving up to [2^128] provably non-overlapping parallel substreams.
    This is the default engine of {!Rng}. *)

type t
(** Mutable generator state: four unboxed 64-bit words, so no draw
    allocates beyond the box {!next_u64} returns. *)

val create : seed:int64 -> t
(** [create ~seed] expands [seed] into a full 256-bit state through
    SplitMix64, as recommended by the authors. *)

val copy : t -> t
(** [copy g] is an independent snapshot of [g]'s current state. *)

val state : t -> int64 array
(** [state g] is the current 256-bit state as 4 words — together with
    {!of_state} this is the crash-safe checkpoint representation of the
    stream. *)

val of_state : int64 array -> t
(** [of_state s] rebuilds a generator from 4 state words:
    [of_state (state g)] produces exactly [g]'s future draws.
    @raise Invalid_argument on a wrong length or the all-zero state. *)

val next_u64 : t -> int64
(** [next_u64 g] advances [g] and returns 64 uniformly random bits. *)

val next_bits : t -> int
(** [next_bits g] advances [g] like {!next_u64} and returns that word as
    an unboxed native int: its bits 63..2 in bits 62..1 and its bit 0 in
    bit 0 (bit 1 is dropped).  So [next_bits g lsr 1] is the word's top
    62 bits and [next_bits g land 1] its low bit — what {!Rng}'s derived
    draws read, without allocating. *)

val fill_int62 : t -> int array -> pos:int -> len:int -> unit
(** [fill_int62 g a ~pos ~len] stores the low 62 bits of [len]
    successive {!next_u64} draws into [a.(pos) .. a.(pos+len-1)] as
    non-negative native ints.  Bit-compatible with calling [next_u64] in
    a loop.
    @raise Invalid_argument if the range is out of bounds. *)

val jump : t -> unit
(** [jump g] advances [g] by [2^128] steps in place.  Calling [jump] on a
    copy yields a stream guaranteed not to overlap the original for
    [2^128] draws. *)
