(** SplitMix64 pseudo-random generator (Steele, Lea & Flood, OOPSLA 2014).

    A 64-bit state generator with period [2^64] whose output function is a
    strong avalanche mixer.  It is primarily used here to seed the larger
    generators ({!Xoshiro256}, {!Pcg32}) and to derive independent child
    seeds, which is the standard, recommended way to bootstrap the xoshiro
    family. *)

type t
(** Mutable generator state: one unboxed 64-bit word. *)

val create : seed:int64 -> t
(** [create ~seed] builds a generator; equal seeds give equal streams. *)

val copy : t -> t
(** [copy g] is an independent snapshot of [g]'s current state. *)

val state : t -> int64 array
(** [state g] is the single state word — the checkpoint representation
    of the stream (see {!of_state}). *)

val of_state : int64 array -> t
(** [of_state s] rebuilds a generator from {!state}'s word.
    @raise Invalid_argument on a wrong length. *)

val next_u64 : t -> int64
(** [next_u64 g] advances [g] and returns 64 uniformly random bits. *)

val next_bits : t -> int
(** [next_bits g] advances [g] like {!next_u64} and returns that word as
    an unboxed native int, laid out as {!Xoshiro256.next_bits}. *)

val fill_int62 : t -> int array -> pos:int -> len:int -> unit
(** [fill_int62 g a ~pos ~len] stores the low 62 bits of [len]
    successive {!next_u64} draws into [a.(pos) .. a.(pos+len-1)] as
    non-negative native ints.
    @raise Invalid_argument if the range is out of bounds. *)

val mix : int64 -> int64
(** [mix z] is the stateless SplitMix64 finalizer: a bijective avalanche
    mixer on 64-bit values.  Useful for hashing seeds. *)
