(* Sequential vs sharded wall-clock comparison on one large simulation.

   Runs the same (seed, n, rounds) once through Rbb_core.Process and
   once through Rbb_sim.Sharded, checks the trajectories are
   bit-identical (they share the randomness law), and records the
   wall-clock ratio to BENCH_sharded_speedup.json so speedups are
   tracked alongside the science.  The headline configuration is
   n = 10^6, 2000 rounds, 4 shards on at most 4 domains (no more than
   the host recommends, so a small box is not oversubscribed); `quick`
   shrinks it for smoke runs. *)

open Rbb_core

let wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let json_path = "BENCH_sharded_speedup.json"

let run ?(quick = false) () =
  let n = if quick then 100_000 else 1_000_000 in
  let rounds = if quick then 100 else 2_000 in
  let cores = Domain.recommended_domain_count () in
  let shards = 4 and domains = Stdlib.min 4 cores in
  let seed = 2024L in
  Printf.printf
    "\n=== SPEEDUP: sequential vs sharded engine (n=%d, rounds=%d, shards=%d, \
     domains=%d, %d cores) ===\n\n"
    n rounds shards domains cores;
  let init = Config.uniform ~n in
  let seq_tel = Rbb_sim.Telemetry.create () in
  let seq = Process.create ~rng:(Rbb_prng.Rng.create ~seed ()) ~init () in
  let t_seq =
    wall (fun () ->
        Process.run ~probe:(Rbb_sim.Telemetry.probe seq_tel) seq ~rounds)
  in
  Printf.printf "sequential Process.run : %8.3f s  (%.2f us/round)\n%!" t_seq
    (1e6 *. t_seq /. float_of_int rounds);
  let par_tel = Rbb_sim.Telemetry.create () in
  let par =
    Rbb_sim.Sharded.create ~telemetry:par_tel ~shards ~domains
      ~rng:(Rbb_prng.Rng.create ~seed ())
      ~init ()
  in
  let t_par = wall (fun () -> Rbb_sim.Sharded.run par ~rounds) in
  Printf.printf "sharded   Sharded.run  : %8.3f s  (%.2f us/round)\n%!" t_par
    (1e6 *. t_par /. float_of_int rounds);
  let identical =
    Config.equal (Process.config seq) (Rbb_sim.Sharded.config par)
  in
  let speedup = t_seq /. t_par in
  Printf.printf "speedup                : %8.2fx\n" speedup;
  Printf.printf "bit-identical          : %b\n" identical;
  if not identical then
    failwith "speedup bench: sharded trajectory diverged from sequential";
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"sharded_speedup\",\n\
    \  \"n\": %d,\n\
    \  \"rounds\": %d,\n\
    \  \"shards\": %d,\n\
    \  \"domains\": %d,\n\
    \  \"cores\": %d,\n\
    \  \"seed\": %Ld,\n\
    \  \"sequential_seconds\": %.6f,\n\
    \  \"sharded_seconds\": %.6f,\n\
    \  \"speedup\": %.4f,\n\
    \  \"bit_identical\": %b,\n\
    \  \"max_load_final\": %d,\n\
    \  \"empty_bins_final\": %d,\n\
    \  \"sequential_telemetry\": %s,\n\
    \  \"sharded_telemetry\": %s\n\
     }\n"
    n rounds shards domains cores seed t_seq t_par speedup identical
    (Process.max_load seq) (Process.empty_bins seq)
    (Rbb_sim.Telemetry.to_json_string seq_tel)
    (Rbb_sim.Telemetry.to_json_string par_tel);
  close_out oc;
  Printf.printf "wrote %s\n" json_path
