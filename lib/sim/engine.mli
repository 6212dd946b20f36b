(** The engine table: every repeated balls-into-bins engine, keyed by
    randomness law ({!kind}) and by {!variant}.

    {v
                 Sequential                    Parallel
      Balls      Rbb_core.Process              Sharded
      Counts     Rbb_core.Counts_process       Sharded_counts
    v}

    Within a row the two variants share one randomness law, so from the
    same creation rng state — or the same checkpoint — they produce
    bit-identical trajectories; the rows are equal in distribution only.

    Each entry creates an engine fresh or restores it from a
    {!Checkpoint.snapshot}, and every engine it returns captures its own
    snapshot back.  Telemetry and tracing are wired in by the entry: the
    parallel engines take the sinks directly, and for the sequential
    ones the entry composes the {!Telemetry.probe} and {!Tracer.probe}
    itself, so no caller builds probes or per-engine closures. *)

type kind = Checkpoint.kind =
  | Balls  (** per-ball engines, any [d_choices] *)
  | Counts  (** count-based engines, uniform re-assignment only *)

type variant =
  | Sequential
  | Parallel of {
      shards : int;
          (** scheduling shards of the per-ball engine (ignored by the
              counts engine); never affects results *)
      domains : int;  (** worker domains; never affects results *)
      failpoints : Failpoint.t;  (** per-ball engine phases only *)
      supervisor : Supervisor.t;  (** per-ball engine phases only *)
    }

val variant :
  shards:int ->
  domains:int ->
  failpoints:Failpoint.t ->
  supervisor:Supervisor.t ->
  variant
(** [Parallel] when more than one shard or domain is asked for, or when
    a failpoint is armed (failpoints guard the parallel per-ball
    engine's phases); [Sequential] otherwise. *)

type t
(** An engine built by the table. *)

type entry = {
  create :
    telemetry:Telemetry.t ->
    tracer:Tracer.t ->
    d_choices:int ->
    rng:Rbb_prng.Rng.t ->
    init:Rbb_core.Config.t ->
    t;
      (** A fresh engine at [init], consuming the one master-key draw of
          [rng] every engine makes.
          @raise Invalid_argument under the engine's own conditions, or
          if a counts engine is asked for [d_choices <> 1]. *)
  restore : telemetry:Telemetry.t -> tracer:Tracer.t -> Checkpoint.snapshot -> t;
      (** Rebuild mid-trajectory, consuming no randomness: the restored
          engine continues exactly where the captured one would have.
          Counters are {e not} copied into [telemetry] (see
          {!Checkpoint.restore_counters}).
          @raise Invalid_argument if the snapshot's kind differs from
          the entry's: the two laws consume randomness differently, so
          a cross-kind resume would silently change the trajectory. *)
}

val entry : kind -> variant -> entry
(** The table lookup. *)

val core : t -> Rbb_core.Engine.t
(** The engine under the generic {!Rbb_core.Engine} operations. *)

val capture : t -> Checkpoint.snapshot
(** Snapshot the engine, counters from its telemetry sink. *)
