(* stationary-1m: n = m = 10^6 in the stationary regime; ms per round of
   the four engines, sequential and with 2 domains. *)

open Rbb_core
module Sharded = Rbb_sim.Sharded
module Sharded_counts = Rbb_sim.Sharded_counts

let n = 1_000_000

(* Rounds the counts engine runs from the uniform start to reach the
   stationary regime (about 41 % of bins empty). *)
let burn_in = 32
(* Set-ups per run; the traced run alternates them between its modes. *)
let setups = 5

type engines = {
  balls : Process.t;
  counts : Counts_process.t;
  sharded : Sharded.t;
  sharded_counts : Sharded_counts.t;
}

let setup ~seed =
  let burn =
    Counts_process.create ~rng:(Measure.rng ~seed "stationary/burn-in")
      ~init:(Config.uniform ~n) ()
  in
  Counts_process.run burn ~rounds:burn_in;
  let init = Counts_process.config burn in
  (* Each parallel engine starts from a copy of its sequential twin's
     creation stream, so the pairs must stay bit-identical. *)
  let rb = Measure.rng ~seed "stationary/balls"
  and rc = Measure.rng ~seed "stationary/counts" in
  let rb' = Rbb_prng.Rng.copy rb and rc' = Rbb_prng.Rng.copy rc in
  let e =
    {
      balls = Process.create ~rng:rb ~init ();
      counts = Counts_process.create ~rng:rc ~init ();
      sharded = Sharded.create ~domains:2 ~rng:rb' ~init ();
      sharded_counts = Sharded_counts.create ~domains:2 ~rng:rc' ~init ();
    }
  in
  Process.step e.balls;
  Counts_process.step e.counts;
  Sharded.step e.sharded;
  Sharded_counts.step e.sharded_counts;
  e

let gates e =
  let thr = Config.legitimacy_threshold n in
  let check name cfg =
    Record.gate (name ^ ".conservation") (Config.balls cfg = n)
      (Printf.sprintf "%d balls, expected %d" (Config.balls cfg) n);
    Record.gate (name ^ ".legitimate")
      (Config.max_load cfg <= thr)
      (Printf.sprintf "max load %d above threshold %d" (Config.max_load cfg) thr)
  in
  check "process" (Process.config e.balls);
  check "counts_process" (Counts_process.config e.counts);
  check "sharded" (Sharded.config e.sharded);
  check "sharded_counts" (Sharded_counts.config e.sharded_counts);
  Layers.equivalence_gates ~balls:e.balls ~counts:e.counts ~sharded:e.sharded
    ~sharded_counts:e.sharded_counts

(* With [sections = [false; true]] (the traced run) the untraced and
   traced samples are taken in alternate rotations of one loop, so the
   tracing overhead is not confounded with drift in the host's speed. *)
let run ~seed ~seconds ~sections =
  List.iter (fun traced -> Record.begin_section ~traced) sections;
  let modes = Array.of_list sections in
  let mode k = modes.(k mod Array.length modes) in
  let e = ref None in
  for k = 0 to setups - 1 do
    e := None;
    Gc.full_major ();
    Span.set_enabled (mode k);
    let dt, v =
      Measure.ms (fun () -> Span.run "stationary.setup" (fun () -> setup ~seed))
    in
    Record.sample ~traced:(mode k) "setup_s" (dt /. 1e3);
    Record.attempt 4;
    e := Some v
  done;
  let e = Option.get !e in
  (* One chunk per engine in turn, so drift in the machine's speed hits
     all four alike.  Chunks take about 0.05-0.3 s each. *)
  let chunk ~traced span metric rounds run =
    let dt = Measure.time_ms (fun () -> Span.run span (fun () -> run rounds)) in
    Record.sample ~traced metric (dt /. float_of_int rounds);
    Record.attempt rounds
  in
  let t_end = Measure.now_s () +. seconds in
  let k = ref 0 in
  while Measure.now_s () < t_end do
    let traced = mode !k in
    Span.set_enabled traced;
    chunk ~traced "process.run" "balls_round_ms" 2 (fun rounds -> Process.run e.balls ~rounds);
    chunk ~traced "counts_process.run" "counts_round_ms" 8 (fun rounds ->
        Counts_process.run e.counts ~rounds);
    chunk ~traced "sharded.run" "balls_2dom_round_ms" 2 (fun rounds ->
        Sharded.run e.sharded ~rounds);
    chunk ~traced "sharded_counts.run" "counts_2dom_round_ms" 8 (fun rounds ->
        Sharded_counts.run e.sharded_counts ~rounds);
    incr k
  done;
  List.iter
    (fun traced -> Record.sample ~traced "peak_rss_mb" (Measure.peak_rss_mb ()))
    sections;
  gates e;
  let timed = List.mem true sections in
  Span.set_enabled timed;
  Layers.replay_gates ~rounds:(if timed then 5 else 1) ~timed ~balls:e.balls ~counts:e.counts
