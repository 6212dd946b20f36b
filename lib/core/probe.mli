(** Instrumentation sink consumed by the core engines.

    [Rbb_core] must stay free of any dependency on the simulation layer,
    so the engines are instrumented against this minimal record of
    callbacks instead of a concrete telemetry or tracing registry.  The
    canonical producers are [Rbb_sim.Telemetry.probe] (aggregate
    counters/timers) and [Rbb_sim.Tracer.probe] (round-level event
    tracing); {!noop} is the default everywhere and costs one branch per
    round on the hot paths.

    The record carries two independent families of callbacks:

    - {b telemetry} ([enabled], [add], [timer_add], [latency]) —
      aggregate counters and durations, summarized at the end of a run;
    - {b tracing} ([tracing], [on_round], [on_span]) — per-round events:
      one observable record per completed round and one span per timed
      engine phase, streamed as they happen.

    Conventions: [now] returns monotonic nanoseconds (0 for {!noop});
    [add name k] bumps an integer counter; [timer_add name ns]
    accumulates a named duration; [latency ns] records one per-round
    latency observation (histogrammed by the sink).  [on_round] reports
    the state of a just-completed round; [on_span] reports one finished
    phase with its [now]-clock endpoints ([worker] identifies the
    emitting worker for multi-domain engines).  No callback may affect
    the trajectory: probes observe, never steer. *)

type t = {
  enabled : bool;  (** engines skip all telemetry work when false *)
  now : unit -> int64;  (** monotonic clock, nanoseconds *)
  add : string -> int -> unit;  (** counter increment *)
  timer_add : string -> int64 -> unit;  (** accumulate a duration *)
  latency : int64 -> unit;  (** one per-round latency sample *)
  tracing : bool;  (** engines skip all tracing work when false *)
  on_round : round:int -> max_load:int -> empty_bins:int -> balls:int -> unit;
      (** observables of a just-completed round *)
  on_span : name:string -> worker:int -> round:int -> t0:int64 -> t1:int64 -> unit;
      (** one finished engine phase: [now]-clock start/end, 1-based
          completed-round number *)
}

val noop : t
(** Inert sink: [enabled] and [tracing] are false, every callback does
    nothing. *)

val live : t -> bool
(** Whether an engine should take its instrumented path:
    [enabled || tracing]. *)

val compose : t -> t -> t
(** [compose a b] fans every callback out to both probes.  If either
    side is not {!live}, the other is returned as-is (so
    [compose noop noop == noop]).  [now] is taken from [a] when [a] is
    live, else from [b] — sinks that need exact clock control should not
    be composed with a live second sink using a different clock. *)

val timed : t -> string -> (unit -> unit) -> unit
(** [timed p name f] runs [f], adding its duration to timer [name] when
    [p] is {!live} (two [now] reads); otherwise it just runs [f]. *)
