(* Per-layer measurements: each layer is timed from outside, through
   its public functions, with one span per measured batch or call.
   Every figure lands in the record's [layer] series under its metric
   name; run.py takes medians and derives the composite metrics. *)

open Rbb_core
module Rng = Rbb_prng.Rng
module Stream = Rbb_prng.Stream
module Multinomial = Rbb_prng.Multinomial

let reps = 7
let opaque x = ignore (Sys.opaque_identity x)

(* Rbb_prng: one draw, one batched fill, one multinomial split. *)
let prng ~seed =
  let r = Measure.rng ~seed "layer/rng" in
  let next () = opaque (Rng.next_u64 r) in
  let below () = opaque (Rng.int_below r 1_000_000) in
  (* A power-of-two bound never rejects, so the word count per call is
     exact and repeats on every run. *)
  let below_pow2 () = opaque (Rng.int_below r (1 lsl 20)) in
  Measure.per_call ~scale:1. "rng.next_u64_ns" ~calls:2_000_000 ~reps next;
  Record.layer_sample "rng.next_u64_words"
    (Measure.words_per_call ~calls:1_000_000 next);
  Measure.per_call ~scale:1. "rng.int_below_ns" ~calls:2_000_000 ~reps below;
  Record.layer_sample "rng.int_below_words"
    (Measure.words_per_call ~calls:1_000_000 below_pow2);
  let buf = Array.make 256 0 in
  Measure.per_call ~scale:256. "rng.fill_int62_ns" ~calls:20_000 ~reps (fun () ->
      Rng.fill_int62 r buf ~pos:0 ~len:256);
  let pool = Multinomial.create r in
  (* A stationary n = 10^6 round releases about 0.6 n balls over its
     245 destination blocks, and each block then splits about 2500
     arrivals over its 4096 bins. *)
  let blocks = Array.make 245 0 in
  Measure.per_call ~scale:1e3 "multinomial.split_blocks_us" ~calls:20 ~reps
    (fun () ->
      Multinomial.split_blocks pool ~count:600_000 ~bins:1_000_000
        ~block_bits:Counts_process.block_bits ~into:blocks);
  let bins = Array.make 4096 0 in
  Measure.per_call ~scale:1e3 "multinomial.split_bins_us" ~calls:2_000 ~reps
    (fun () -> Multinomial.split_bins pool ~count:2500 ~width:4096 ~into:bins ~off:0);
  let master = Rng.next_u64 r and k = ref 0 in
  Measure.per_call ~scale:1. "stream.for_shard_ns" ~calls:1_000_000 ~reps
    (fun () ->
      incr k;
      opaque (Stream.for_shard ~master ~round:!k ~shard:(!k land 255) ()))

(* Rbb_sim storage: checkpoint save of the 65536-bin counts snapshot
   (the large serve-mix job), its CRC, an atomic write of the same
   bytes, and a small result-sized atomic write. *)
let storage ~seed ~dir =
  let c =
    Counts_process.create ~rng:(Measure.rng ~seed "layer/ckpt")
      ~init:(Config.uniform ~n:65536) ()
  in
  Counts_process.run c ~rounds:8;
  let snap = Rbb_sim.Checkpoint.capture_counts c in
  let path = Filename.concat dir "layer.ckpt" in
  Measure.per_call ~scale:1e6 "checkpoint.save_ms" ~calls:1 ~reps:9 (fun () ->
      Rbb_sim.Checkpoint.save ~path snap);
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Record.layer_sample "checkpoint.bytes" (float_of_int (String.length bytes));
  Measure.per_call ~scale:1e6 "integrity.crc_ms" ~calls:5 ~reps (fun () ->
      opaque (Rbb_sim.Integrity.string bytes));
  let copy = Filename.concat dir "layer.bin" in
  Measure.per_call ~scale:1e6 "fileio.write_atomic_ms" ~calls:1 ~reps:9
    (fun () -> Rbb_sim.Fileio.write_atomic ~path:copy (fun oc -> output_string oc bytes));
  (* A result document of a small serve-mix job is about 600 bytes. *)
  let small = String.make 600 'r' in
  let small_path = Filename.concat dir "layer.result" in
  Measure.per_call ~scale:1e6 "fileio.write_atomic_small_ms" ~calls:1 ~reps:9
    (fun () ->
      Rbb_sim.Fileio.write_atomic ~path:small_path (fun oc -> output_string oc small))

(* Rbb_serve codec and Rbb_obs registry. *)
let codec () =
  let open Rbb_serve in
  let spec =
    {
      Protocol.n = 128;
      m = 128;
      rounds = 2000;
      seed = 12345;
      init = "uniform";
      engine = Protocol.Balls;
      deadline_s = infinity;
    }
  in
  let frame = Protocol.encode_frame (Protocol.request_to_json (Protocol.Submit spec)) in
  Measure.per_call ~scale:1e3 "protocol.submit_encode_us" ~calls:20_000 ~reps
    (fun () -> opaque (Protocol.encode_frame (Protocol.request_to_json (Protocol.Submit spec))));
  let max_frame = Protocol.default_max_frame in
  Measure.per_call ~scale:1e3 "protocol.submit_decode_us" ~calls:20_000 ~reps
    (fun () ->
      match Protocol.extract ~max_frame frame with
      | Protocol.Frame { payload; _ } -> (
          match Protocol.request_of_json payload with
          | Ok r -> opaque r
          | Error e -> failwith e)
      | _ -> failwith "protocol.submit_decode: no frame");
  let event =
    Protocol.response_to_json
      (Protocol.Event { ev = "done"; id = "job-000042"; round = 2000; detail = "" })
  in
  Measure.per_call ~scale:1e3 "protocol.event_decode_us" ~calls:20_000 ~reps
    (fun () ->
      match Protocol.response_of_json event with
      | Ok r -> opaque r
      | Error e -> failwith e);
  let registry = Rbb_obs.Registry.create () in
  let labels = [ ("outcome", "ok") ] in
  Measure.per_call ~scale:1. "registry.observe_ns" ~calls:200_000 ~reps (fun () ->
      Rbb_obs.Registry.observe registry ~labels "rbb_job_sojourn_seconds" 0.02)

(* Kernel replays ------------------------------------------------------- *)

(* Replays the next round of [p] through [Process.step_launch] /
   [Process.step_settle] over every shard, on copies of its arrays, and
   returns the replayed loads.  The first pass is untimed and counts the
   kernels' allocation; [reps] further passes are timed with one span
   per kernel call. *)
let replay_process ~reps p =
  let bins = Process.n p in
  let src = Config.loads (Process.config p) in
  let loads = Array.copy src and arrivals = Array.make bins 0 in
  let engine = Rng.engine (Process.rng p)
  and master = Process.master p
  and round = Process.round p
  and capacity = Process.capacity p
  and d = Process.d_choices p in
  let shards = Process.shard_count ~bins in
  let launch s =
    let lo, hi = Process.shard_bounds ~bins ~shard:s in
    let rng = Stream.for_shard ~engine ~master ~round ~shard:s () in
    Process.step_launch ~rng ~loads ~arrivals ~capacity ~d ~lo ~hi ()
  in
  let settle s =
    let lo, hi = Process.shard_bounds ~bins ~shard:s in
    opaque (Process.step_settle ~loads ~arrivals ~capacity ~lo ~hi)
  in
  let reset () =
    Array.blit src 0 loads 0 bins;
    Array.fill arrivals 0 bins 0
  in
  reset ();
  let w0 = Gc.minor_words () in
  for s = 0 to shards - 1 do
    launch s
  done;
  for s = 0 to shards - 1 do
    settle s
  done;
  let words = Gc.minor_words () -. w0 in
  let replayed = Array.copy loads in
  if reps > 0 then Record.layer_sample "process.round_words" words;
  for _ = 1 to reps do
    reset ();
    Record.layer_sample "process.launch_ms"
      (Measure.time_ms (fun () ->
           for s = 0 to shards - 1 do
             Span.run "process.step_launch" (fun () -> launch s)
           done));
    Record.layer_sample "process.settle_ms"
      (Measure.time_ms (fun () ->
           for s = 0 to shards - 1 do
             Span.run "process.step_settle" (fun () -> settle s)
           done))
  done;
  replayed

(* The same for [Counts_process.release_block] / [place_block].  The
   settle pass is the bench's own loop (the engine fuses it into its
   private block settle) and is not part of either figure. *)
let replay_counts ~reps c =
  let bins = Counts_process.n c in
  let blocks = Process.shard_count ~bins in
  let src = Config.loads (Counts_process.config c) in
  let engine = Rng.engine (Counts_process.rng c)
  and master = Counts_process.master c
  and round = Counts_process.round c
  and capacity = Counts_process.capacity c in
  let pool = Multinomial.create (Rng.create ~seed:0L ()) in
  let block_in = Array.make blocks 0 and arrivals = Array.make bins 0 in
  let release b =
    opaque
      (Counts_process.release_block ~pool ~engine ~master ~round ~loads:src
         ~capacity ~block:b ~into:block_in)
  in
  let place b =
    Counts_process.place_block ~pool ~engine ~master ~round ~bins ~arrivals
      ~block:b ~count:block_in.(b)
  in
  Array.fill block_in 0 blocks 0;
  let w0 = Gc.minor_words () in
  for b = 0 to blocks - 1 do
    release b
  done;
  for b = 0 to blocks - 1 do
    place b
  done;
  let words = Gc.minor_words () -. w0 in
  let replayed =
    Array.init bins (fun u -> src.(u) - min src.(u) capacity + arrivals.(u))
  in
  if reps > 0 then Record.layer_sample "counts.round_words" words;
  for _ = 1 to reps do
    Array.fill block_in 0 blocks 0;
    Record.layer_sample "counts.release_ms"
      (Measure.time_ms (fun () ->
           for b = 0 to blocks - 1 do
             Span.run "counts.release_block" (fun () -> release b)
           done));
    Record.layer_sample "counts.place_ms"
      (Measure.time_ms (fun () ->
           for b = 0 to blocks - 1 do
             Span.run "counts.place_block" (fun () -> place b)
           done))
  done;
  replayed

(* Each of [rounds] consecutive rounds is first replayed through the
   kernels (timed when [timed]), then run by the engine's own step, timed
   alongside so the reconciliation compares figures taken moments apart.
   Gate: every replayed round equals the engine's step bit for bit. *)
let replay_gates ~rounds ~timed ~balls ~counts =
  let reps = if timed then 1 else 0 in
  let ok_b = ref true and ok_c = ref true in
  for _ = 1 to rounds do
    let rb = replay_process ~reps balls in
    let dt = Measure.time_ms (fun () -> Span.run "process.step" (fun () -> Process.step balls)) in
    if timed then Record.layer_sample "process.step_ms" dt;
    ok_b := !ok_b && Config.equal (Config.of_array rb) (Process.config balls);
    let rc = replay_counts ~reps counts in
    let dt =
      Measure.time_ms (fun () -> Span.run "counts_process.step" (fun () -> Counts_process.step counts))
    in
    if timed then Record.layer_sample "counts.step_ms" dt;
    ok_c := !ok_c && Config.equal (Config.of_array rc) (Counts_process.config counts)
  done;
  Record.gate "replay.process" !ok_b "replayed kernel round differs from Process.step";
  Record.gate "replay.counts" !ok_c "replayed kernel round differs from Counts_process.step";
  Record.attempt (2 * rounds)

(* Gate: after the same rounds from the same streams, each 2-domain
   engine equals its sequential twin. *)
let equivalence_gates ~balls ~counts ~sharded ~sharded_counts =
  Record.gate "equivalence.sharded"
    (Config.equal (Process.config balls) (Rbb_sim.Sharded.config sharded))
    "Sharded (2 domains) diverged from Process";
  Record.gate "equivalence.sharded_counts"
    (Config.equal (Counts_process.config counts) (Rbb_sim.Sharded_counts.config sharded_counts))
    "Sharded_counts (2 domains) diverged from Counts_process"

(* Both engines and their 2-domain twins from [init], timed in
   alternating chunks of [balls_rounds] / [counts_rounds] rounds: the
   round times behind sharded.efficiency on a workload that does not time
   the 2-domain engines itself.  Returns the sequential engines. *)
let engine_probe ~seed ~init ~balls_rounds ~counts_rounds =
  let module Sharded = Rbb_sim.Sharded in
  let module Sharded_counts = Rbb_sim.Sharded_counts in
  let rb = Measure.rng ~seed "layer/engines/balls"
  and rc = Measure.rng ~seed "layer/engines/counts" in
  let rb' = Rng.copy rb and rc' = Rng.copy rc in
  let balls = Process.create ~rng:rb ~init ()
  and counts = Counts_process.create ~rng:rc ~init ()
  and sharded = Sharded.create ~domains:2 ~rng:rb' ~init ()
  and sharded_counts = Sharded_counts.create ~domains:2 ~rng:rc' ~init () in
  let chunk span metric rounds run =
    let dt = Measure.time_ms (fun () -> Span.run span (fun () -> run rounds)) in
    Record.sample metric (dt /. float_of_int rounds);
    Record.attempt rounds
  in
  for k = 0 to 10 do
    (* The first rotation warms the engines up and is not recorded. *)
    let chunk span metric rounds run =
      if k = 0 then run rounds else chunk span metric rounds run
    in
    chunk "process.run" "balls_round_ms" balls_rounds (fun rounds -> Process.run balls ~rounds);
    chunk "sharded.run" "balls_2dom_round_ms" balls_rounds (fun rounds ->
        Sharded.run sharded ~rounds);
    chunk "counts_process.run" "counts_round_ms" counts_rounds (fun rounds ->
        Counts_process.run counts ~rounds);
    chunk "sharded_counts.run" "counts_2dom_round_ms" counts_rounds (fun rounds ->
        Sharded_counts.run sharded_counts ~rounds)
  done;
  equivalence_gates ~balls ~counts ~sharded ~sharded_counts;
  (balls, counts)

(* The workload-independent suite the traced run adds on every workload. *)
let micro ~seed ~dir =
  prng ~seed;
  storage ~seed ~dir;
  codec ()
