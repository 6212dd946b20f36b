(* m/n scaling bench: stationary max load against the Θ((m/n) ln n)
   law of Los & Sauerwald, recorded to BENCH_mn_scaling.json.

   Phase 1 (scaling): the counts engine at m/n ∈ {1, 2, 8, 64} from a
   balanced start, with a diffusion-aware warmup (the max-load
   deviation D builds like a random walk, so reaching a stationary
   deviation of D takes Θ(D²) rounds), then a sampling window whose
   per-round max loads give the stationary mean.  The four points
   (x = (m/n)·ln n, y = mean stationary max load) are fit with a
   least-squares line; the bench gates on the fit being a genuine line
   through the data (r² high, slope positive) — that is exactly
   "consistent with Θ((m/n) ln n)".

   Phase 2 (crossover): the per-ball engine at d = 1 vs d = 2 on the
   same ratios.  Two-choice re-assignment pins the max load near the
   ⌈m/n⌉ conservation floor, so the d=1/d=2 gap must widen as m/n
   grows — the bench gates on d=2 beating d=1 at every ratio and on
   the absolute gap being widest at the largest ratio. *)

open Rbb_core
module Regression = Rbb_stats.Regression

let json_path = "BENCH_mn_scaling.json"
let ratios = [| 1; 2; 8; 64 |]

type row = {
  ratio : int;
  m : int;
  warmup : int;
  window : int;
  mean_max : float;
  peak_max : int;
  threshold : int;
  legit_fraction : float;
}

(* Rounds needed to build (and then average over) a stationary
   deviation of size ~ (m/n)·ln n, with a floor so the small ratios
   still get a meaningful window. *)
let horizon ~floor ~n ~ratio =
  let d = float_of_int ratio *. Float.log (float_of_int n) in
  Stdlib.max floor (int_of_float (4.0 *. d *. d))

(* From a balanced start on the sequential [kind] engine, run [warmup]
   silent rounds, then sample max load each round for [window]
   rounds. *)
let sample kind ~d_choices ~n ~m ~seed ~warmup ~window ~threshold =
  let engine =
    Rbb_sim.Engine.core
      ((Rbb_sim.Engine.entry kind Rbb_sim.Engine.Sequential).create
         ~telemetry:Rbb_sim.Telemetry.noop ~tracer:Rbb_sim.Tracer.noop
         ~d_choices
         ~rng:(Rbb_prng.Rng.create ~seed:(Int64.of_int seed) ())
         ~init:(Config.balanced ~n ~m))
  in
  Engine.run engine ~rounds:warmup;
  let sum = ref 0 and peak = ref 0 and legit = ref 0 in
  for _ = 1 to window do
    Engine.step engine;
    let x = Engine.max_load engine in
    sum := !sum + x;
    if x > !peak then peak := x;
    if x <= threshold then incr legit
  done;
  ( float_of_int !sum /. float_of_int window,
    !peak,
    float_of_int !legit /. float_of_int window )

let counts_row ~quick ~n ~seed ratio =
  let m = ratio * n in
  let floor = if quick then 2_000 else 50_000 in
  let warmup = horizon ~floor ~n ~ratio in
  let window = warmup in
  let threshold = Config.legitimacy_threshold ~m n in
  let mean_max, peak_max, legit_fraction =
    sample Rbb_sim.Engine.Counts ~d_choices:1 ~n ~m ~seed ~warmup ~window
      ~threshold
  in
  { ratio; m; warmup; window; mean_max; peak_max; threshold; legit_fraction }

let balls_mean ~quick ~n ~seed ~d_choices ratio =
  let m = ratio * n in
  let floor = if quick then 1_000 else 20_000 in
  (* d = 2 equilibrates near the conservation floor almost immediately;
     the d = 1 runs carry the same diffusive horizon as phase 1. *)
  let warmup =
    if d_choices > 1 then floor else horizon ~floor ~n ~ratio
  in
  let mean, _, _ =
    sample Rbb_sim.Engine.Balls ~d_choices ~n ~m ~seed ~warmup ~window:warmup
      ~threshold:0
  in
  mean

let run ?(quick = false) () =
  Printf.printf
    "\n=== MN: stationary max load vs m/n against \206\152((m/n) ln n) ===\n\n%!";
  let n = if quick then 128 else 512 in
  let seed = 2026 in
  let ln_n = Float.log (float_of_int n) in
  let rows =
    Array.map
      (fun ratio ->
        let r = counts_row ~quick ~n ~seed ratio in
        Printf.printf
          "m/n=%-3d m=%-6d window=%-7d mean max %8.2f  peak %5d  \
           threshold %5d  legit %.3f\n%!"
          r.ratio r.m r.window r.mean_max r.peak_max r.threshold
          r.legit_fraction;
        r)
      ratios
  in
  let points =
    Array.map
      (fun r -> (float_of_int r.ratio *. ln_n, r.mean_max))
      rows
  in
  let fit = Regression.linear points in
  Printf.printf
    "fit     : mean max \226\137\136 %.3f \194\183 (m/n) ln n %+.2f   (r\194\178 = %.4f)\n%!"
    fit.Regression.slope fit.Regression.intercept fit.Regression.r2;
  let r2_gate = if quick then 0.95 else 0.98 in
  if fit.Regression.r2 < r2_gate then
    failwith
      (Printf.sprintf
         "mn bench: max-load-vs-(m/n)ln n fit r\194\178 = %.4f below the %.2f \
          gate — scaling is not \206\152((m/n) ln n)"
         fit.Regression.r2 r2_gate);
  if fit.Regression.slope <= 0.0 then
    failwith "mn bench: fitted slope is not positive";
  (* Every window must sit inside the m-aware legitimacy band; this is
     the whole point of the threshold generalisation. *)
  Array.iter
    (fun r ->
      if r.legit_fraction < 0.99 then
        failwith
          (Printf.sprintf
             "mn bench: m/n=%d spent %.1f%% of the stationary window above \
              the m-aware threshold %d"
             r.ratio
             (100.0 *. (1.0 -. r.legit_fraction))
             r.threshold))
    rows;
  (* Phase 2: d = 1 vs d = 2 on the per-ball engine. *)
  let cn = if quick then 128 else 256 in
  Printf.printf "\ncrossover (per-ball engine, n=%d):\n%!" cn;
  let crossover =
    Array.map
      (fun ratio ->
        let d1 = balls_mean ~quick ~n:cn ~seed ~d_choices:1 ratio in
        let d2 = balls_mean ~quick ~n:cn ~seed ~d_choices:2 ratio in
        Printf.printf
          "m/n=%-3d d=1 mean max %8.2f   d=2 mean max %8.2f   gap %8.2f\n%!"
          ratio d1 d2 (d1 -. d2);
        (ratio, d1, d2))
      ratios
  in
  Array.iter
    (fun (ratio, d1, d2) ->
      if d2 >= d1 then
        failwith
          (Printf.sprintf
             "mn bench: two-choice did not beat one-choice at m/n=%d" ratio))
    crossover;
  let gap (_, d1, d2) = d1 -. d2 in
  let last = crossover.(Array.length crossover - 1) in
  Array.iter
    (fun row ->
      if row != last && gap row >= gap last then
        failwith
          "mn bench: d=1 vs d=2 gap is not widest at the largest m/n — no \
           crossover")
    crossover;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"bench\": \"mn_scaling\",\n";
  Printf.bprintf buf "  \"quick\": %b,\n" quick;
  Printf.bprintf buf "  \"n\": %d,\n" n;
  Printf.bprintf buf "  \"seed\": %d,\n" seed;
  Printf.bprintf buf "  \"law\": \"max load = Theta((m/n) ln n)\",\n";
  Printf.bprintf buf "  \"rows\": [\n";
  Array.iteri
    (fun i r ->
      Printf.bprintf buf
        "    {\"ratio\": %d, \"m\": %d, \"warmup_rounds\": %d, \
         \"window_rounds\": %d, \"mean_max_load\": %.4f, \
         \"peak_max_load\": %d, \"threshold\": %d, \
         \"legit_fraction\": %.4f}%s\n"
        r.ratio r.m r.warmup r.window r.mean_max r.peak_max r.threshold
        r.legit_fraction
        (if i < Array.length rows - 1 then "," else ""))
    rows;
  Printf.bprintf buf "  ],\n";
  Printf.bprintf buf
    "  \"fit\": {\"x\": \"(m/n) * ln n\", \"y\": \"mean stationary max \
     load\", \"slope\": %.6f, \"intercept\": %.6f, \"r2\": %.6f},\n"
    fit.Regression.slope fit.Regression.intercept fit.Regression.r2;
  Printf.bprintf buf "  \"crossover\": {\n";
  Printf.bprintf buf "    \"engine\": \"balls\",\n";
  Printf.bprintf buf "    \"n\": %d,\n" cn;
  Printf.bprintf buf "    \"rows\": [\n";
  Array.iteri
    (fun i (ratio, d1, d2) ->
      Printf.bprintf buf
        "      {\"ratio\": %d, \"d1_mean_max_load\": %.4f, \
         \"d2_mean_max_load\": %.4f, \"gap\": %.4f}%s\n"
        ratio d1 d2 (d1 -. d2)
        (if i < Array.length crossover - 1 then "," else ""))
    crossover;
  Printf.bprintf buf "    ]\n";
  Printf.bprintf buf "  }\n";
  Buffer.add_string buf "}\n";
  let oc = open_out json_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nwrote %s\n%!" json_path
