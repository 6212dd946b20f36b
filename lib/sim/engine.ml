type kind = Checkpoint.kind = Balls | Counts

type variant =
  | Sequential
  | Parallel of {
      shards : int;
      domains : int;
      failpoints : Failpoint.t;
      supervisor : Supervisor.t;
    }

module type S = sig
  include Rbb_core.Engine.S

  val capture : t -> Checkpoint.snapshot
end

let variant ~shards ~domains ~failpoints ~supervisor =
  if shards > 1 || domains > 1 || Failpoint.enabled failpoints then
    Parallel { shards; domains; failpoints; supervisor }
  else Sequential

type t = T : (module S with type t = 'a) * 'a -> t

type entry = {
  create :
    telemetry:Telemetry.t ->
    tracer:Tracer.t ->
    d_choices:int ->
    rng:Rbb_prng.Rng.t ->
    init:Rbb_core.Config.t ->
    t;
  restore : telemetry:Telemetry.t -> tracer:Tracer.t -> Checkpoint.snapshot -> t;
}

let core (T ((module E), e)) = Rbb_core.Engine.T ((module E), e)
let capture (T ((module E), e)) = E.capture e

let kind_name = function Balls -> "per-ball" | Counts -> "counts"

(* The restore arguments every engine shares, checked against the
   entry's kind first: a cross-kind resume is refused, never coerced. *)
let restored kind (snap : Checkpoint.snapshot)
    (f :
      ?capacity:int ->
      rng:Rbb_prng.Rng.t ->
      master:int64 ->
      round:int ->
      init:Rbb_core.Config.t ->
      unit ->
      'a) =
  if snap.kind <> kind then
    invalid_arg
      (Printf.sprintf "Engine.restore: checkpoint is from the %s engine"
         (kind_name snap.kind));
  f ~capacity:snap.capacity
    ~rng:(Rbb_prng.Rng.of_snapshot snap.rng)
    ~master:snap.master ~round:snap.round ~init:snap.config ()

let uniform_only d_choices =
  if d_choices <> 1 then
    invalid_arg "Engine.create: the counts engines support d_choices = 1 only"

let sequential_probe ~telemetry ~tracer =
  Rbb_core.Probe.compose (Telemetry.probe telemetry) (Tracer.probe tracer)

let process ~telemetry ~tracer p =
  let probe = sequential_probe ~telemetry ~tracer in
  T
    ( (module struct
        include Rbb_core.Process

        let step p = run ~probe p ~rounds:1
        let capture p = Checkpoint.capture_process ~telemetry p
      end),
      p )

let counts_process ~telemetry ~tracer c =
  let probe = sequential_probe ~telemetry ~tracer in
  T
    ( (module struct
        include Rbb_core.Counts_process

        let step c = run ~probe c ~rounds:1
        let capture c = Checkpoint.capture_counts ~telemetry c
      end),
      c )

let sharded s =
  T
    ( (module struct
        include Sharded

        let capture = Checkpoint.capture_sharded
      end),
      s )

let sharded_counts s =
  T
    ( (module struct
        include Sharded_counts

        let capture = Checkpoint.capture_sharded_counts
      end),
      s )

let entry kind variant =
  match (kind, variant) with
  | Balls, Sequential ->
      {
        create =
          (fun ~telemetry ~tracer ~d_choices ~rng ~init ->
            process ~telemetry ~tracer
              (Rbb_core.Process.create ~d_choices ~rng ~init ()));
        restore =
          (fun ~telemetry ~tracer snap ->
            process ~telemetry ~tracer
              (restored Balls snap
                 (Rbb_core.Process.restore ~d_choices:snap.Checkpoint.d_choices)));
      }
  | Balls, Parallel { shards; domains; failpoints; supervisor } ->
      {
        create =
          (fun ~telemetry ~tracer ~d_choices ~rng ~init ->
            sharded
              (Sharded.create ~telemetry ~tracer ~failpoints ~supervisor
                 ~d_choices ~shards ~domains ~rng ~init ()));
        restore =
          (fun ~telemetry ~tracer snap ->
            sharded
              (restored Balls snap
                 (Sharded.restore ~telemetry ~tracer ~failpoints ~supervisor
                    ~shards ~domains ~d_choices:snap.Checkpoint.d_choices)));
      }
  | Counts, Sequential ->
      {
        create =
          (fun ~telemetry ~tracer ~d_choices ~rng ~init ->
            uniform_only d_choices;
            counts_process ~telemetry ~tracer
              (Rbb_core.Counts_process.create ~rng ~init ()));
        restore =
          (fun ~telemetry ~tracer snap ->
            counts_process ~telemetry ~tracer
              (restored Counts snap Rbb_core.Counts_process.restore));
      }
  | Counts, Parallel { domains; _ } ->
      {
        create =
          (fun ~telemetry ~tracer ~d_choices ~rng ~init ->
            uniform_only d_choices;
            sharded_counts
              (Sharded_counts.create ~telemetry ~tracer ~domains ~rng ~init ()));
        restore =
          (fun ~telemetry ~tracer snap ->
            sharded_counts
              (restored Counts snap
                 (Sharded_counts.restore ~telemetry ~tracer ~domains)));
      }
