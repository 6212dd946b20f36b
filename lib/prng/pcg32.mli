(** PCG32 pseudo-random generator (O'Neill, 2014): the [PCG-XSH-RR]
    variant with 64-bit state and 32-bit output.

    Included as an alternative engine so that statistical results can be
    cross-checked against a generator from an unrelated family (see the
    sampler-independence ablation in DESIGN.md §7). *)

type t
(** Mutable generator state: the state word and the stream's increment,
    both unboxed. *)

val create : seed:int64 -> t
(** [create ~seed] builds a generator on the default stream. *)

val create_stream : seed:int64 -> stream:int64 -> t
(** [create_stream ~seed ~stream] selects one of [2^63] independent
    streams (distinct [stream] values give statistically independent
    sequences). *)

val copy : t -> t
(** [copy g] is an independent snapshot of [g]'s current state. *)

val state : t -> int64 array
(** [state g] is [[| state; increment |]] — the checkpoint
    representation of the stream (see {!of_state}). *)

val of_state : int64 array -> t
(** [of_state s] rebuilds a generator from {!state}'s two words:
    [of_state (state g)] produces exactly [g]'s future draws.
    @raise Invalid_argument on a wrong length or an even increment. *)

val next_u32 : t -> int32
(** [next_u32 g] advances [g] and returns 32 uniformly random bits. *)

val next_u64 : t -> int64
(** [next_u64 g] concatenates two 32-bit outputs into 64 random bits. *)

val next_bits : t -> int
(** [next_bits g] advances [g] like {!next_u64} and returns that word as
    an unboxed native int, laid out as {!Xoshiro256.next_bits}. *)

val fill_int62 : t -> int array -> pos:int -> len:int -> unit
(** [fill_int62 g a ~pos ~len] stores the low 62 bits of [len]
    successive {!next_u64} draws into [a.(pos) .. a.(pos+len-1)] as
    non-negative native ints.
    @raise Invalid_argument if the range is out of bounds. *)
