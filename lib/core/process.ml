type t = {
  rng : Rbb_prng.Rng.t;
  master : int64;  (* keys the per-(round, shard) launch streams *)
  d : int;
  weights : Rbb_prng.Alias.t option;  (* non-uniform destination law *)
  capacity : int;  (* balls released per bin per round *)
  loads : int array;
  arrivals : int array;  (* reused scratch buffer *)
  m : int;
  mutable round : int;
  mutable max_load : int;
  mutable empty : int;
}

(* Randomness sharding.  Each round, the launch phase draws from one
   independent stream per contiguous block of [shard_size] bins, keyed
   by (master, round, shard).  The block size is a fixed constant of
   the process law — never a function of how many domains or scheduling
   shards a parallel engine uses — so every engine that walks the
   blocks in any order produces the same configuration trajectory. *)
let shard_size = 4096

let shard_count ~bins =
  if bins <= 0 then invalid_arg "Process.shard_count: bins <= 0";
  (bins + shard_size - 1) / shard_size

let shard_bounds ~bins ~shard =
  if shard < 0 || shard >= shard_count ~bins then
    invalid_arg "Process.shard_bounds: shard out of range";
  let lo = shard * shard_size in
  (lo, Stdlib.min bins (lo + shard_size))

let shard_master rng = Rbb_prng.Splitmix64.mix (Rbb_prng.Rng.next_u64 rng)

let create ?(d_choices = 1) ?weights ?(capacity = 1) ~rng ~init () =
  if d_choices < 1 then invalid_arg "Process.create: d_choices < 1";
  if capacity < 1 then invalid_arg "Process.create: capacity < 1";
  let loads = Config.loads init in
  let weights =
    match weights with
    | None -> None
    | Some w ->
        if d_choices > 1 then
          invalid_arg "Process.create: weights and d_choices cannot be combined";
        if Array.length w <> Array.length loads then
          invalid_arg "Process.create: weights length differs from bin count";
        Some (Rbb_prng.Alias.create w)
  in
  let master = shard_master rng in
  {
    rng;
    master;
    d = d_choices;
    weights;
    capacity;
    loads;
    arrivals = Array.make (Array.length loads) 0;
    m = Config.balls init;
    round = 0;
    max_load = Config.max_load init;
    empty = Config.empty_bins init;
  }

(* Rebuild a process mid-trajectory: same fields as [create], but the
   master key and round counter come from a checkpoint instead of being
   drawn/zeroed, so no randomness is consumed.  Combined with a
   [Rbb_prng.Rng.of_snapshot] generator this reproduces the state of a
   process that ran [round] rounds, bit for bit. *)
let restore ?(d_choices = 1) ?(capacity = 1) ~rng ~master ~round ~init () =
  if d_choices < 1 then invalid_arg "Process.restore: d_choices < 1";
  if capacity < 1 then invalid_arg "Process.restore: capacity < 1";
  if round < 0 then invalid_arg "Process.restore: round < 0";
  let loads = Config.loads init in
  {
    rng;
    master;
    d = d_choices;
    weights = None;
    capacity;
    loads;
    arrivals = Array.make (Array.length loads) 0;
    m = Config.balls init;
    round;
    max_load = Config.max_load init;
    empty = Config.empty_bins init;
  }

let n t = Array.length t.loads
let balls t = t.m
let round t = t.round
let rng t = t.rng
let master t = t.master
let d_choices t = t.d
let capacity t = t.capacity
let weighted t = t.weights <> None

let load t u =
  if u < 0 || u >= Array.length t.loads then invalid_arg "Process.load: out of range";
  t.loads.(u)

let max_load t = t.max_load
let empty_bins t = t.empty

let last_arrivals t u =
  if u < 0 || u >= Array.length t.arrivals then
    invalid_arg "Process.last_arrivals: out of range";
  if t.round = 0 then 0 else t.arrivals.(u)
let config t = Config.of_array t.loads

let set_config t q =
  if Config.n q <> Array.length t.loads then
    invalid_arg "Process.set_config: bin count differs";
  if Config.balls q <> t.m then
    invalid_arg "Process.set_config: ball count differs";
  Array.blit (Config.unsafe_loads q) 0 t.loads 0 (Array.length t.loads);
  t.max_load <- Config.max_load q;
  t.empty <- Config.empty_bins q

(* Destination of one re-assigned ball: uniform for d = 1 (or weighted
   when a bias is installed), least loaded of d independent uniform
   picks otherwise (ties to the first drawn).  Phase 1 never mutates
   [loads], so the d-choices comparison always sees the pre-round
   configuration no matter which shard or engine draws it. *)
let draw_destination ~rng ~loads ~d ~alias =
  match alias with
  | Some a -> Rbb_prng.Alias.draw a rng
  | None ->
      if d = 1 then Rbb_prng.Rng.int_below rng (Array.length loads)
      else begin
        let best = ref (Rbb_prng.Rng.int_below rng (Array.length loads)) in
        for _ = 2 to d do
          let v = Rbb_prng.Rng.int_below rng (Array.length loads) in
          if loads.(v) < loads.(!best) then best := v
        done;
        !best
      end

let destination t =
  draw_destination ~rng:t.rng ~loads:t.loads ~d:t.d ~alias:t.weights

(* Per-domain scratch for the launch's draw pass, allocated on a
   domain's first launch: concurrent launches on different domains
   never share it. *)
let launch_scratch = Domain.DLS.new_key (fun () -> Array.make shard_size 0)

let scatter ~arrivals dst len =
  for i = 0 to len - 1 do
    let v = Array.unsafe_get dst i in
    Array.unsafe_set arrivals v (Array.unsafe_get arrivals v + 1)
  done

(* Two passes over a block: the draw pass writes each ball's destination
   into the scratch, the scatter pass adds them into [arrivals].  The
   draw loop's branches mispredict on every bin's load; keeping its
   cache-missing increments out of it lets the scatter loop overlap
   those misses.  Draws come in the same order from the same stream and
   read only [loads], so deferring the increments changes no
   destination and no sum.  A block launching more than [shard_size]
   balls (capacity > 1) scatters each time the scratch fills. *)
let step_launch ~rng ~loads ~arrivals ~capacity ~d ?alias ~lo ~hi () =
  let bins = Array.length loads in
  if lo < 0 || hi < lo || hi > bins || Array.length arrivals < bins then
    invalid_arg "Process.step_launch: slice out of bounds";
  (match alias with
   | Some a when Rbb_prng.Alias.size a > bins ->
       invalid_arg "Process.step_launch: alias table larger than loads"
   | _ -> ());
  let dst = Domain.DLS.get launch_scratch in
  let k = ref 0 in
  for u = lo to hi - 1 do
    (* Branchless [min load capacity], as in [step_settle_into]. *)
    let e = Array.unsafe_get loads u - capacity in
    for _ = 1 to capacity + (e asr 62 land e) do
      if !k = shard_size then begin
        scatter ~arrivals dst !k;
        k := 0
      end;
      Array.unsafe_set dst !k (draw_destination ~rng ~loads ~d ~alias);
      incr k
    done
  done;
  scatter ~arrivals dst !k

let step_settle_into ~src ~dst ~arrivals ~capacity ~lo ~hi =
  (* Validate the slice once, then run unchecked: per-element bounds
     checks cost more than the arithmetic on this pure streaming pass. *)
  if lo < 0 || hi < lo || hi > Array.length src || hi > Array.length dst
     || hi > Array.length arrivals
  then invalid_arg "Process.step_settle_into: slice out of bounds";
  let max_l = ref 0 and empty = ref 0 in
  for u = lo to hi - 1 do
    let q = Array.unsafe_get src u in
    (* Branchless [min q capacity] and empty-bin count: whether a bin is
       empty is close to a coin flip in steady state, so data-dependent
       branches here mispredict constantly. *)
    let d = q - capacity in
    let rel = capacity + (d asr 62 land d) in
    let q' = q - rel + Array.unsafe_get arrivals u in
    Array.unsafe_set dst u q';
    if q' > !max_l then max_l := q';
    empty := !empty + 1 - ((-q') lsr 62)
  done;
  (!max_l, !empty)

let step_settle ~loads ~arrivals ~capacity ~lo ~hi =
  step_settle_into ~src:loads ~dst:loads ~arrivals ~capacity ~lo ~hi

(* One round.  Whether to instrument is decided once per round, by a
   single [Probe.live] test; the per-ball launch loop is the same either
   way, and a live probe never affects the trajectory. *)
let step_with (probe : Probe.t) t =
  let live = Probe.live probe in
  let bins = Array.length t.loads in
  Array.fill t.arrivals 0 bins 0;
  let t0 = if live then probe.now () else 0L in
  (* Phase 1: each non-empty bin launches up to [capacity] balls, one
     derived stream per randomness shard. *)
  let engine = Rbb_prng.Rng.engine t.rng in
  let blocks = shard_count ~bins in
  for s = 0 to blocks - 1 do
    let lo, hi = shard_bounds ~bins ~shard:s in
    let rng =
      Rbb_prng.Stream.for_shard ~engine ~master:t.master ~round:t.round ~shard:s ()
    in
    step_launch ~rng ~loads:t.loads ~arrivals:t.arrivals ~capacity:t.capacity
      ~d:t.d ?alias:t.weights ~lo ~hi ()
  done;
  let t1 = if live then probe.now () else 0L in
  (* Phase 2: apply departures and arrivals; refresh the incremental
     max-load and empty-bin counters in the same pass. *)
  let max_l, empty =
    step_settle ~loads:t.loads ~arrivals:t.arrivals ~capacity:t.capacity ~lo:0
      ~hi:bins
  in
  t.max_load <- max_l;
  t.empty <- empty;
  t.round <- t.round + 1;
  if live then begin
    let t2 = probe.now () in
    probe.timer_add "process.launch" (Int64.sub t1 t0);
    probe.timer_add "process.settle" (Int64.sub t2 t1);
    probe.latency (Int64.sub t2 t0);
    probe.add "process.rounds" 1;
    probe.add "process.launch.blocks" blocks;
    if probe.tracing then begin
      probe.on_span ~name:"process.launch" ~worker:0 ~round:t.round ~t0 ~t1;
      probe.on_span ~name:"process.settle" ~worker:0 ~round:t.round ~t0:t1 ~t1:t2;
      probe.on_round ~round:t.round ~max_load:max_l ~empty_bins:empty ~balls:t.m
    end
  end

let step t = step_with Probe.noop t

let run ?(probe = Probe.noop) t ~rounds =
  if rounds < 0 then invalid_arg "Process.run: rounds < 0";
  Probe.timed probe "process.run" (fun () ->
      for _ = 1 to rounds do
        step_with probe t
      done)

let run_until_legitimate ?(probe = Probe.noop) ?beta t ~max_rounds =
  let module E = struct
    type nonrec t = t

    let n = n and balls = balls and round = round and config = config
    let set_config = set_config and rng = rng
    let max_load = max_load and empty_bins = empty_bins
    let step = step_with probe
  end in
  Engine.run_until_legitimate ?beta (Engine.T ((module E), t)) ~max_rounds
