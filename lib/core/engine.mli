(** The one engine interface.

    Every repeated balls-into-bins engine implements the paper's single
    process law — each non-empty bin re-assigns one ball uniformly at
    random per round — so every consumer needs the same handful of
    operations: advance a round, read the max load and empty-bin count,
    read or overwrite the configuration (the §4.1 adversary's move),
    and continue the creation stream.  {!Process}, {!Counts_process},
    [Rbb_sim.Sharded] and [Rbb_sim.Sharded_counts] all satisfy {!S} as
    they stand, so [(module Process)] is an engine; the generic loops
    below ({!run}, {!run_until}, {!run_until_legitimate}, the adversary
    and the recovery measurement) are written once over it. *)

module type S = sig
  type t

  val n : t -> int
  (** Bin count. *)

  val balls : t -> int
  (** Ball count (conserved by every round and by {!set_config}). *)

  val round : t -> int
  (** Rounds completed so far. *)

  val step : t -> unit
  (** Advance one synchronous round. *)

  val config : t -> Config.t
  (** Snapshot of the current configuration. *)

  val set_config : t -> Config.t -> unit
  (** Overwrite the load vector, keeping the round counter and the
      generator state.
      @raise Invalid_argument on a different bin or ball count. *)

  val rng : t -> Rbb_prng.Rng.t
  (** The creation stream, after its master-key draw: the stream the
      adversary and checkpoint layers continue. *)

  val max_load : t -> int
  val empty_bins : t -> int
end

type t = T : (module S with type t = 'a) * 'a -> t
(** A running engine of any implementation: [T ((module Process), p)]. *)

val n : t -> int
val balls : t -> int
val round : t -> int
val step : t -> unit
val config : t -> Config.t
val set_config : t -> Config.t -> unit
val rng : t -> Rbb_prng.Rng.t
val max_load : t -> int
val empty_bins : t -> int

val run : t -> rounds:int -> unit
(** [run e ~rounds] steps [rounds] times ([rounds = 0] is a no-op).
    @raise Invalid_argument if [rounds < 0]. *)

val run_until : t -> max_rounds:int -> stop:(t -> bool) -> int option
(** Steps until [stop e] holds (checked before the first round and
    after each one); returns the round number at which it first held,
    or [None] after [max_rounds] additional rounds.
    @raise Invalid_argument if [max_rounds < 0]. *)

val run_until_legitimate : ?beta:float -> t -> max_rounds:int -> int option
(** Rounds until the max load enters the legitimate band
    {!Config.legitimacy_threshold} (with the engine's ball count):
    the Theorem 1 convergence measurement. *)
