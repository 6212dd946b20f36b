(** Rounds-to-relegitimacy after transient faults (paper §4.1 /
    Theorem 1).

    A recovery measurement drives an engine through repeated
    fault-and-recover episodes: perturb with an {!Rbb_core.Adversary}
    action, then count rounds until the max load re-enters the
    legitimate band [max_load <= ceil (beta · max(1, m/n) · ln n)] —
    the threshold is derived from the engine's bin count {e and} ball
    count, so [m ≫ n] runs measure against a reachable band (Los &
    Sauerwald's Θ((m/n) log n)).  Theorem 1 bounds
    convergence from {e any} configuration — the adversary's included —
    by O(n) rounds w.h.p., so the JSON report normalizes recovery times
    by [n] ([mean_recovery_over_n]).

    The measurement is engine-generic over {!Rbb_core.Engine.t}: with
    the same creation rng state, engines that share a randomness law
    produce the identical episode series. *)

type episode = {
  fault_round : int;
      (** cumulative measured rounds when this episode's fault landed *)
  spike_max_load : int;  (** max load right after the perturbation *)
  recovery_rounds : int option;
      (** rounds to relegitimize; [None] if the budget ran out *)
}

type t = {
  n : int;
  balls : int;
  beta : float;
  threshold : int;
  action : string;
  episodes : episode list;
}

val action_name : Rbb_core.Adversary.action -> string
(** Stable identifier used in reports ([pile_into(k)], [reshuffle],
    [rotate(k)]). *)

val measure :
  ?beta:float ->
  action:Rbb_core.Adversary.action ->
  episodes:int ->
  max_recovery:int ->
  Rbb_core.Engine.t ->
  t
(** [measure ~action ~episodes ~max_recovery engine] first lets
    the engine settle into the legitimate band (at most [max_recovery]
    rounds), then runs [episodes] fault-and-recover cycles, each capped
    at [max_recovery] rounds.  [beta] defaults to the paper's 4.0.
    @raise Invalid_argument if [episodes < 1] or [max_recovery < 1]. *)

val to_json : t -> string
(** Deterministic JSON document (schema [rbb.recovery/1], no trailing
    newline): per-episode series plus [mean_recovery_rounds],
    [worst_recovery_rounds] and the Theorem-1 ratio
    [mean_recovery_over_n].  Byte-stable for a fixed seed, so docs can
    pin small-n numbers. *)
