(* Distributional equivalence gate for the count-based engine.

   Counts_process consumes randomness under a different law from the
   per-ball Process, so trajectories are only equal in distribution.
   This suite is the gate for that claim:

   - one-round arrival laws, counts vs the exact Bin(m, 1/n) pmf and
     counts vs balls (exact-tail chi-square, Rbb_stats.Gof);
   - the Multinomial splitter's per-bin marginal vs the exact binomial;
   - max-load trajectories and legitimacy-dwell / excursion lengths
     across seeds, counts vs balls (two-sample KS);
   - exact ball conservation and aggregate-counter consistency on both
     engines under QCheck, including adversarial set_config
     perturbations and in-memory checkpoint/resume round trips.

   All statistical tests run on fixed seeds, so they are deterministic
   in CI: thresholds (p > 0.01) were verified to pass with margin, not
   tuned to the edge. *)

open Rbb_core
module Rng = Rbb_prng.Rng
module Gof = Rbb_stats.Gof

let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* One-round arrival laws                                              *)
(* ------------------------------------------------------------------ *)

(* From the uniform n = m configuration every bin releases exactly one
   ball, so the arrivals into a fixed bin over independent runs are
   exactly Bin(n, 1/n) — on both engines. *)
let arrivals_hist ~counts_engine ~n ~trials ~cap =
  let hist = Array.make (cap + 2) 0 in
  for i = 0 to trials - 1 do
    let rng = Rng.create ~seed:(Int64.of_int (0x5EED0 + i)) () in
    let a =
      if counts_engine then begin
        let c = Counts_process.create ~rng ~init:(Config.uniform ~n) () in
        Counts_process.step c;
        Counts_process.last_arrivals c 0
      end
      else begin
        let p = Process.create ~rng ~init:(Config.uniform ~n) () in
        Process.step p;
        Process.last_arrivals p 0
      end
    in
    let cell = if a > cap then cap + 1 else a in
    hist.(cell) <- hist.(cell) + 1
  done;
  hist

let binomial_cells ~n ~p ~cap =
  let tbl = Rbb_prng.Sampler.Binomial_table.create ~n ~p in
  let cells = Array.make (cap + 2) 0. in
  for k = 0 to n do
    let cell = if k > cap then cap + 1 else k in
    cells.(cell) <- cells.(cell) +. Rbb_prng.Sampler.Binomial_table.pmf tbl k
  done;
  cells

let trials = 4000
let small_n = 64
let cap = 5

let counts_arrivals_match_exact_pmf () =
  let observed = arrivals_hist ~counts_engine:true ~n:small_n ~trials ~cap in
  let probabilities =
    binomial_cells ~n:small_n ~p:(1. /. fi small_n) ~cap
  in
  let stat, df, p = Gof.chi2_gof_test ~observed ~probabilities in
  if p < 0.01 then
    Alcotest.failf "counts arrival law vs Bin(%d, 1/%d): chi2 = %.2f (df %d), p = %.5f"
      small_n small_n stat df p

let balls_arrivals_match_exact_pmf () =
  let observed = arrivals_hist ~counts_engine:false ~n:small_n ~trials ~cap in
  let probabilities =
    binomial_cells ~n:small_n ~p:(1. /. fi small_n) ~cap
  in
  let stat, df, p = Gof.chi2_gof_test ~observed ~probabilities in
  if p < 0.01 then
    Alcotest.failf "balls arrival law vs Bin(%d, 1/%d): chi2 = %.2f (df %d), p = %.5f"
      small_n small_n stat df p

let counts_vs_balls_arrival_homogeneity () =
  let a = arrivals_hist ~counts_engine:true ~n:small_n ~trials ~cap in
  let b = arrivals_hist ~counts_engine:false ~n:small_n ~trials ~cap in
  let stat, df, p = Gof.chi2_homogeneity_test ~a ~b in
  if p < 0.01 then
    Alcotest.failf "counts vs balls arrival histograms: chi2 = %.2f (df %d), p = %.5f"
      stat df p

(* m ≠ n arrival laws.  With capacity 1 every nonempty bin releases a
   single ball, so a balanced m > n start still moves only n balls a
   round and the arrival law stays Bin(n, 1/n) — NOT Bin(m, 1/n).  To
   test the full-throw law we raise the per-bin capacity to m/n: from
   the balanced start every bin then releases exactly m/n balls, all m
   balls move, and arrivals into a fixed bin are exactly Bin(m, 1/n)
   on both engines. *)
let arrivals_hist_mn ~counts_engine ~n ~ratio ~trials ~cap =
  let m = ratio * n in
  let hist = Array.make (cap + 2) 0 in
  for i = 0 to trials - 1 do
    let rng = Rng.create ~seed:(Int64.of_int (0x3B1E5 + i)) () in
    let init = Config.balanced ~n ~m in
    let a =
      if counts_engine then begin
        let c = Counts_process.create ~capacity:ratio ~rng ~init () in
        Counts_process.step c;
        Counts_process.last_arrivals c 0
      end
      else begin
        let p = Process.create ~capacity:ratio ~rng ~init () in
        Process.step p;
        Process.last_arrivals p 0
      end
    in
    let cell = if a > cap then cap + 1 else a in
    hist.(cell) <- hist.(cell) + 1
  done;
  hist

let mn_arrivals_match_exact_pmf ~counts_engine ~ratio () =
  let cap = (2 * ratio) + 5 in
  let observed =
    arrivals_hist_mn ~counts_engine ~n:small_n ~ratio ~trials ~cap
  in
  let m = ratio * small_n in
  let probabilities = binomial_cells ~n:m ~p:(1. /. fi small_n) ~cap in
  let stat, df, p = Gof.chi2_gof_test ~observed ~probabilities in
  if p < 0.01 then
    Alcotest.failf
      "%s arrival law at m = %dn vs Bin(%d, 1/%d): chi2 = %.2f (df %d), p = %.5f"
      (if counts_engine then "counts" else "balls")
      ratio m small_n stat df p

let mn_counts_vs_balls_homogeneity ~ratio () =
  let cap = (2 * ratio) + 5 in
  let a = arrivals_hist_mn ~counts_engine:true ~n:small_n ~ratio ~trials ~cap in
  let b = arrivals_hist_mn ~counts_engine:false ~n:small_n ~ratio ~trials ~cap in
  let stat, df, p = Gof.chi2_homogeneity_test ~a ~b in
  if p < 0.01 then
    Alcotest.failf
      "counts vs balls arrivals at m = %dn: chi2 = %.2f (df %d), p = %.5f"
      ratio stat df p

(* The load-capped regime (capacity 1, random m ≠ n start): no clean
   closed form for the arrival law, but the two engines must still
   agree in distribution.  Each trial seeds both engines with the same
   random configuration so only the engine law differs. *)
let mn_random_start_homogeneity () =
  let n = small_n and ratio = 2 and cap = 5 in
  let m = ratio * n in
  let one ~counts_engine =
    let hist = Array.make (cap + 2) 0 in
    for i = 0 to trials - 1 do
      let rng = Rng.create ~seed:(Int64.of_int (0xD1CE5 + i)) () in
      let init = Config.random rng ~n ~m in
      let a =
        if counts_engine then begin
          let c = Counts_process.create ~rng ~init () in
          Counts_process.step c;
          Counts_process.last_arrivals c 0
        end
        else begin
          let p = Process.create ~rng ~init () in
          Process.step p;
          Process.last_arrivals p 0
        end
      in
      let cell = if a > cap then cap + 1 else a in
      hist.(cell) <- hist.(cell) + 1
    done;
    hist
  in
  let a = one ~counts_engine:true in
  let b = one ~counts_engine:false in
  let stat, df, p = Gof.chi2_homogeneity_test ~a ~b in
  if p < 0.01 then
    Alcotest.failf
      "counts vs balls arrivals from random m = 2n starts: chi2 = %.2f (df %d), p = %.5f"
      stat df p

(* The splitter's per-bin marginal is the exact binomial too — the
   dyadic decomposition must not distort any single bin's law. *)
let split_marginal_matches_binomial () =
  let m = 48 and width = 16 and trials = 3000 and cap = 8 in
  let hist = Array.make (cap + 2) 0 in
  for i = 0 to trials - 1 do
    let pool =
      Rbb_prng.Multinomial.create
        (Rng.create ~seed:(Int64.of_int (0xA110C + i)) ())
    in
    let counts = Rbb_prng.Multinomial.split pool ~count:m ~width in
    let v = counts.(0) in
    let cell = if v > cap then cap + 1 else v in
    hist.(cell) <- hist.(cell) + 1
  done;
  let probabilities = binomial_cells ~n:m ~p:(1. /. fi width) ~cap in
  let stat, df, p = Gof.chi2_gof_test ~observed:hist ~probabilities in
  if p < 0.01 then
    Alcotest.failf "split marginal vs Bin(%d, 1/%d): chi2 = %.2f (df %d), p = %.5f"
      m width stat df p

(* ------------------------------------------------------------------ *)
(* Trajectory laws (two-sample KS across seeds)                        *)
(* ------------------------------------------------------------------ *)

let traj_n = 1024
let traj_rounds = 400
let traj_seeds = List.init 12 (fun i -> Int64.of_int (7000 + (13 * i)))

(* Run one engine for [traj_rounds] and hand each round's max load to
   [record]. *)
let run_trajectory ~counts_engine ~seed record =
  let rng = Rng.create ~seed () in
  let init = Config.uniform ~n:traj_n in
  if counts_engine then begin
    let c = Counts_process.create ~rng ~init () in
    for _ = 1 to traj_rounds do
      Counts_process.step c;
      record (Counts_process.max_load c)
    done
  end
  else begin
    let p = Process.create ~rng ~init () in
    for _ = 1 to traj_rounds do
      Process.step p;
      record (Process.max_load p)
    done
  end

let max_load_samples ~counts_engine =
  (* Strided samples past a warm-up, pooled over seeds: near-independent
     draws from the stationary max-load law. *)
  let samples = ref [] in
  List.iter
    (fun seed ->
      let r = ref 0 in
      run_trajectory ~counts_engine ~seed (fun m ->
          incr r;
          if !r > 50 && !r mod 5 = 0 then samples := fi m :: !samples))
    traj_seeds;
  Array.of_list !samples

let max_load_trajectories_ks () =
  let a = max_load_samples ~counts_engine:true in
  let b = max_load_samples ~counts_engine:false in
  Alcotest.(check int) "sample size" (Array.length a) (Array.length b);
  let d, p = Gof.ks_test a b in
  (* Heavy integer ties make the KS p-value conservative; the law is
     identical, so even the conservative p clears 0.01 with margin. *)
  if p < 0.01 then
    Alcotest.failf "max-load trajectory KS: d = %.4f, p = %.5f" d p

(* Lengths of maximal runs above / at-or-below a pseudo-threshold: the
   dwell (legitimate) and excursion (illegitimate) sojourn laws at a
   threshold low enough to be crossed constantly. *)
let sojourn_lengths ~counts_engine ~threshold =
  let above = ref [] and below = ref [] in
  List.iter
    (fun seed ->
      let state = ref None in
      let flush () =
        match !state with
        | None -> ()
        | Some (up, len) ->
            if up then above := fi len :: !above else below := fi len :: !below
      in
      run_trajectory ~counts_engine ~seed (fun m ->
          let up = m > threshold in
          match !state with
          | Some (up', len) when up' = up -> state := Some (up, len + 1)
          | _ ->
              flush ();
              state := Some (up, 1));
      flush ())
    traj_seeds;
  (Array.of_list !above, Array.of_list !below)

let sojourn_lengths_ks () =
  let threshold = 8 in
  let above_c, below_c = sojourn_lengths ~counts_engine:true ~threshold in
  let above_b, below_b = sojourn_lengths ~counts_engine:false ~threshold in
  (* The pseudo-threshold must actually be crossed; with these seeds
     both engines produce hundreds of sojourns. *)
  Alcotest.(check bool) "counts excursions observed" true
    (Array.length above_c > 50 && Array.length below_c > 50);
  Alcotest.(check bool) "balls excursions observed" true
    (Array.length above_b > 50 && Array.length below_b > 50);
  let d_up, p_up = Gof.ks_test above_c above_b in
  if p_up < 0.01 then
    Alcotest.failf "excursion-length KS: d = %.4f, p = %.5f" d_up p_up;
  let d_dn, p_dn = Gof.ks_test below_c below_b in
  if p_dn < 0.01 then
    Alcotest.failf "dwell-length KS: d = %.4f, p = %.5f" d_dn p_dn

(* ------------------------------------------------------------------ *)
(* Exact invariants under QCheck                                       *)
(* ------------------------------------------------------------------ *)

let sum_loads_counts c =
  let s = ref 0 in
  for u = 0 to Counts_process.n c - 1 do
    s := !s + Counts_process.load c u
  done;
  !s

let sum_loads_process p =
  let s = ref 0 in
  for u = 0 to Process.n p - 1 do
    s := !s + Process.load p u
  done;
  !s

(* Recompute the incrementally maintained aggregates from scratch. *)
let check_aggregates ~max_load ~empty ~load ~n =
  let ml = ref 0 and e = ref 0 in
  for u = 0 to n - 1 do
    let q = load u in
    if q > !ml then ml := q;
    if q = 0 then incr e
  done;
  !ml = max_load && !e = empty

let gen_run =
  QCheck2.Gen.(
    triple (int_range 16 5000) (int_range 0 30) (int_range 0 1_000_000))

let prop_counts_conserves =
  Tutil.prop "counts engine conserves balls" ~count:60 gen_run
    (fun (n, rounds, salt) ->
      let rng = Rng.create ~seed:(Int64.of_int salt) () in
      let c = Counts_process.create ~rng ~init:(Config.uniform ~n) () in
      Counts_process.run c ~rounds;
      sum_loads_counts c = n
      && check_aggregates ~max_load:(Counts_process.max_load c)
           ~empty:(Counts_process.empty_bins c)
           ~load:(Counts_process.load c) ~n)

let prop_balls_conserves =
  Tutil.prop "balls engine conserves balls" ~count:40 gen_run
    (fun (n, rounds, salt) ->
      let rng = Rng.create ~seed:(Int64.of_int salt) () in
      let p = Process.create ~rng ~init:(Config.uniform ~n) () in
      Process.run p ~rounds;
      sum_loads_process p = n
      && check_aggregates ~max_load:(Process.max_load p)
           ~empty:(Process.empty_bins p) ~load:(Process.load p) ~n)

(* Conservation must hold for an arbitrary ball count, not just the
   paper's m = n: a random m (including 0 and m ≫ n) from a balanced
   start stays exactly conserved on both engines. *)
let gen_run_mn =
  QCheck2.Gen.(
    quad (int_range 16 2000) (int_range 0 50_000) (int_range 0 30)
      (int_range 0 1_000_000))

let prop_counts_conserves_mn =
  Tutil.prop "counts engine conserves an arbitrary m" ~count:40 gen_run_mn
    (fun (n, m, rounds, salt) ->
      let rng = Rng.create ~seed:(Int64.of_int salt) () in
      let c = Counts_process.create ~rng ~init:(Config.balanced ~n ~m) () in
      Counts_process.run c ~rounds;
      sum_loads_counts c = m
      && Config.balls (Counts_process.config c) = m
      && check_aggregates ~max_load:(Counts_process.max_load c)
           ~empty:(Counts_process.empty_bins c)
           ~load:(Counts_process.load c) ~n)

let prop_balls_conserves_mn =
  Tutil.prop "balls engine conserves an arbitrary m" ~count:25
    QCheck2.Gen.(
      quad (int_range 16 2000) (int_range 0 10_000) (int_range 0 30)
        (int_range 0 1_000_000))
    (fun (n, m, rounds, salt) ->
      let rng = Rng.create ~seed:(Int64.of_int salt) () in
      let p = Process.create ~rng ~init:(Config.balanced ~n ~m) () in
      Process.run p ~rounds;
      sum_loads_process p = m
      && Config.balls (Process.config p) = m
      && check_aggregates ~max_load:(Process.max_load p)
           ~empty:(Process.empty_bins p) ~load:(Process.load p) ~n)

(* Adversarial perturbations (the Section 4.1 move: overwrite the
   configuration, keep the generator) must leave conservation and the
   aggregate counters exact on both engines. *)
let prop_conserves_under_adversary =
  Tutil.prop "conservation under adversarial set_config" ~count:40 gen_run
    (fun (n, rounds, salt) ->
      let rng = Rng.create ~seed:(Int64.of_int salt) () in
      let c = Counts_process.create ~rng ~init:(Config.uniform ~n) () in
      let rng' = Rng.create ~seed:(Int64.of_int salt) () in
      let p = Process.create ~rng:rng' ~init:(Config.uniform ~n) () in
      let ok = ref true in
      for r = 1 to rounds do
        if r mod 5 = 0 then begin
          (* Pile every ball into a salt-dependent bin on both engines. *)
          let q = Config.all_in_one ~bin:(salt mod n) ~n ~m:n () in
          Counts_process.set_config c q;
          Process.set_config p q
        end;
        Counts_process.step c;
        Process.step p;
        if sum_loads_counts c <> n || sum_loads_process p <> n then ok := false
      done;
      !ok
      && check_aggregates ~max_load:(Counts_process.max_load c)
           ~empty:(Counts_process.empty_bins c)
           ~load:(Counts_process.load c) ~n
      && check_aggregates ~max_load:(Process.max_load p)
           ~empty:(Process.empty_bins p) ~load:(Process.load p) ~n)

(* An in-memory checkpoint/resume round trip in the middle of a run
   must be invisible: the resumed engine finishes on the same
   configuration (bit-exact), with conservation intact.  (File-level
   round trips are covered in test_engines.ml.) *)
let prop_counts_checkpoint_resume_exact =
  Tutil.prop "counts checkpoint/resume is bit-exact" ~count:30
    QCheck2.Gen.(
      quad (int_range 16 3000) (int_range 0 15) (int_range 0 15)
        (int_range 0 1_000_000))
    (fun (n, t1, t2, salt) ->
      let rng = Rng.create ~seed:(Int64.of_int salt) () in
      let c = Counts_process.create ~rng ~init:(Config.uniform ~n) () in
      Counts_process.run c ~rounds:t1;
      let snap = Rbb_sim.Checkpoint.capture_counts c in
      let resumed = Tutil.restore Rbb_sim.Engine.Counts Rbb_sim.Engine.Sequential snap in
      Counts_process.run c ~rounds:t2;
      Engine.run resumed ~rounds:t2;
      Config.balls (Engine.config resumed) = n
      && Config.equal (Counts_process.config c) (Engine.config resumed)
      && Engine.round resumed = t1 + t2)

let prop_sharded_counts_matches_sequential =
  Tutil.prop "sharded counts engine is bit-identical" ~count:20
    QCheck2.Gen.(
      quad (int_range 16 20_000) (int_range 0 20) (int_range 1 3)
        (int_range 0 1_000_000))
    (fun (n, rounds, domains, salt) ->
      let seq =
        Counts_process.create
          ~rng:(Rng.create ~seed:(Int64.of_int salt) ())
          ~init:(Config.uniform ~n) ()
      in
      Counts_process.run seq ~rounds;
      let par =
        Rbb_sim.Sharded_counts.create ~domains
          ~rng:(Rng.create ~seed:(Int64.of_int salt) ())
          ~init:(Config.uniform ~n) ()
      in
      Rbb_sim.Sharded_counts.run par ~rounds;
      Config.equal (Counts_process.config seq)
        (Rbb_sim.Sharded_counts.config par)
      && Counts_process.max_load seq = Rbb_sim.Sharded_counts.max_load par
      && Counts_process.empty_bins seq = Rbb_sim.Sharded_counts.empty_bins par)

let suite =
  [
    ( "distributional.arrival_law",
      [
        Tutil.slow "counts vs exact Bin(m, 1/n)" counts_arrivals_match_exact_pmf;
        Tutil.slow "balls vs exact Bin(m, 1/n)" balls_arrivals_match_exact_pmf;
        Tutil.slow "counts vs balls homogeneity" counts_vs_balls_arrival_homogeneity;
        Tutil.slow "split marginal vs binomial" split_marginal_matches_binomial;
      ] );
    ( "distributional.arrival_law_mn",
      [
        Tutil.slow "counts at m=2n vs exact Bin(2n, 1/n)"
          (mn_arrivals_match_exact_pmf ~counts_engine:true ~ratio:2);
        Tutil.slow "balls at m=2n vs exact Bin(2n, 1/n)"
          (mn_arrivals_match_exact_pmf ~counts_engine:false ~ratio:2);
        Tutil.slow "counts at m=8n vs exact Bin(8n, 1/n)"
          (mn_arrivals_match_exact_pmf ~counts_engine:true ~ratio:8);
        Tutil.slow "balls at m=8n vs exact Bin(8n, 1/n)"
          (mn_arrivals_match_exact_pmf ~counts_engine:false ~ratio:8);
        Tutil.slow "counts vs balls homogeneity at m=8n"
          (mn_counts_vs_balls_homogeneity ~ratio:8);
        Tutil.slow "counts vs balls homogeneity, random m=2n starts"
          mn_random_start_homogeneity;
      ] );
    ( "distributional.trajectories",
      [
        Tutil.slow "max-load KS" max_load_trajectories_ks;
        Tutil.slow "sojourn-length KS" sojourn_lengths_ks;
      ] );
    ( "distributional.invariants",
      [
        prop_counts_conserves;
        prop_balls_conserves;
        prop_counts_conserves_mn;
        prop_balls_conserves_mn;
        prop_conserves_under_adversary;
        prop_counts_checkpoint_resume_exact;
        prop_sharded_counts_matches_sequential;
      ] );
  ]
