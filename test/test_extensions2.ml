(* Tests for the token-level exact chain, the Israeli-Jalfon baseline,
   adaptive stopping, and configuration serialization. *)

open Rbb_core

(* ------------------------------------------------------------------ *)
(* Token_chain                                                         *)
(* ------------------------------------------------------------------ *)

let token_chain_state_count () =
  (* m! * C(m+n-1, n-1): (2,2) -> 2*3 = 6; (3,3) -> 6*10 = 60;
     (4,2) -> 2*5 = 10. *)
  let count n m =
    Rbb_markov.Token_chain.num_states
      (Rbb_markov.Token_chain.create ~n ~m ~strategy:Rbb_markov.Token_chain.Fifo)
  in
  Alcotest.(check int) "n=2 m=2" 6 (count 2 2);
  Alcotest.(check int) "n=3 m=3" 60 (count 3 3);
  Alcotest.(check int) "n=4 m=2" 20 (count 4 2);
  Alcotest.(check int) "n=2 m=0" 1 (count 2 0)

let token_chain_roundtrip () =
  let t =
    Rbb_markov.Token_chain.create ~n:2 ~m:2 ~strategy:Rbb_markov.Token_chain.Fifo
  in
  for s = 0 to Rbb_markov.Token_chain.num_states t - 1 do
    let q = Rbb_markov.Token_chain.queues_of_state t s in
    Alcotest.(check int) "roundtrip" s (Rbb_markov.Token_chain.state_of_queues t q)
  done

let token_chain_rows_normalized () =
  let t =
    Rbb_markov.Token_chain.create ~n:3 ~m:3 ~strategy:Rbb_markov.Token_chain.Fifo
  in
  let init = Rbb_markov.Token_chain.initial_state t (Config.uniform ~n:3) in
  let d = Rbb_markov.Token_chain.distribution_at t ~init ~rounds:3 in
  Tutil.check_close ~tol:1e-9 "mass 1" 1. (Array.fold_left ( +. ) 0. d)

let token_chain_initial_state_layout () =
  let t =
    Rbb_markov.Token_chain.create ~n:3 ~m:3 ~strategy:Rbb_markov.Token_chain.Fifo
  in
  let init = Rbb_markov.Token_chain.initial_state t (Config.of_array [| 2; 0; 1 |]) in
  let q = Rbb_markov.Token_chain.queues_of_state t init in
  Alcotest.(check (list int)) "bin 0 gets balls 0,1 in order" [ 0; 1 ] q.(0);
  Alcotest.(check (list int)) "bin 1 empty" [] q.(1);
  Alcotest.(check (list int)) "bin 2 gets ball 2" [ 2 ] q.(2)

let token_chain_load_marginal_matches_anonymous_chain () =
  (* Collapsing the token chain onto load vectors must give exactly the
     anonymous chain's distribution. *)
  let n = 3 and m = 3 and rounds = 3 in
  let tc =
    Rbb_markov.Token_chain.create ~n ~m ~strategy:Rbb_markov.Token_chain.Fifo
  in
  let init_cfg = Config.all_in_one ~n ~m () in
  let d =
    Rbb_markov.Token_chain.distribution_at tc
      ~init:(Rbb_markov.Token_chain.initial_state tc init_cfg)
      ~rounds
  in
  let collapsed = Rbb_markov.Token_chain.load_vector_distribution tc d in
  let chain = Rbb_markov.Chain.create ~n ~m in
  let exact = Rbb_markov.Chain.distribution_at chain ~init:[| m; 0; 0 |] ~rounds in
  List.iter
    (fun (loads, p) ->
      let s = Rbb_markov.Chain.state_index chain loads in
      Tutil.check_close ~tol:1e-9
        (Printf.sprintf "P(%d%d%d)" loads.(0) loads.(1) loads.(2))
        exact.(s) p)
    collapsed

let token_chain_simulator_validation strategy tc_strategy name =
  (* The simulator's distribution over FULL queue states after a few
     rounds must match the exact token chain. *)
  let n = 3 and m = 3 and rounds = 2 in
  let tc = Rbb_markov.Token_chain.create ~n ~m ~strategy:tc_strategy in
  let init_cfg = Config.uniform ~n in
  let exact =
    Rbb_markov.Token_chain.distribution_at tc
      ~init:(Rbb_markov.Token_chain.initial_state tc init_cfg)
      ~rounds
  in
  let trials = 60_000 in
  let counts = Array.make (Rbb_markov.Token_chain.num_states tc) 0 in
  let rng = Tutil.rng () in
  for _ = 1 to trials do
    let t = Token_process.create ~strategy ~rng ~init:init_cfg () in
    Token_process.run t ~rounds;
    let queues = Array.init n (Token_process.queue_contents t) in
    let s = Rbb_markov.Token_chain.state_of_queues tc queues in
    counts.(s) <- counts.(s) + 1
  done;
  let empirical = Array.map (fun c -> float_of_int c /. float_of_int trials) counts in
  let tv = Rbb_markov.Token_chain.total_variation exact empirical in
  Alcotest.(check bool)
    (Printf.sprintf "%s: TV %.4f < 0.02" name tv)
    true (tv < 0.02)

let token_chain_validates_fifo () =
  token_chain_simulator_validation Token_process.Fifo Rbb_markov.Token_chain.Fifo
    "fifo"

let token_chain_validates_lifo () =
  token_chain_simulator_validation Token_process.Lifo Rbb_markov.Token_chain.Lifo
    "lifo"

let token_chain_position_marginal_uniformizes () =
  (* After many rounds each ball's position is (close to) uniform. *)
  let tc =
    Rbb_markov.Token_chain.create ~n:3 ~m:3 ~strategy:Rbb_markov.Token_chain.Fifo
  in
  let init = Rbb_markov.Token_chain.initial_state tc (Config.uniform ~n:3) in
  let d = Rbb_markov.Token_chain.distribution_at tc ~init ~rounds:25 in
  let marginal = Rbb_markov.Token_chain.ball_position_marginal tc d ~ball:0 in
  Array.iter (fun p -> Tutil.check_close ~tol:1e-3 "uniform" (1. /. 3.) p) marginal

let token_chain_fifo_lifo_same_loads () =
  (* Strategy obliviousness, exactly: FIFO and LIFO chains give the same
     load-vector distribution at every round. *)
  let n = 3 and m = 3 in
  let init_cfg = Config.of_array [| 2; 1; 0 |] in
  let dist strategy =
    let tc = Rbb_markov.Token_chain.create ~n ~m ~strategy in
    let d =
      Rbb_markov.Token_chain.distribution_at tc
        ~init:(Rbb_markov.Token_chain.initial_state tc init_cfg)
        ~rounds:3
    in
    Rbb_markov.Token_chain.load_vector_distribution tc d
  in
  let fifo = dist Rbb_markov.Token_chain.Fifo in
  let lifo = dist Rbb_markov.Token_chain.Lifo in
  List.iter2
    (fun (la, pa) (lb, pb) ->
      Alcotest.(check (array int)) "same support" la lb;
      Tutil.check_close ~tol:1e-12 "same probability" pa pb)
    fifo lifo

let token_chain_refuses_large () =
  Tutil.check_raises_invalid "too large" (fun () ->
      ignore
        (Rbb_markov.Token_chain.create ~n:6 ~m:8
           ~strategy:Rbb_markov.Token_chain.Fifo))

(* ------------------------------------------------------------------ *)
(* Israeli-Jalfon                                                      *)
(* ------------------------------------------------------------------ *)

let ij_monotone_and_converges () =
  let rng = Tutil.rng () in
  let t = Israeli_jalfon.create_full ~rng ~n:64 () in
  Alcotest.(check int) "starts full" 64 (Israeli_jalfon.token_count t);
  let prev = ref 64 in
  for _ = 1 to 500 do
    Israeli_jalfon.step t;
    let c = Israeli_jalfon.token_count t in
    Alcotest.(check bool) "non-increasing" true (c <= !prev);
    Alcotest.(check bool) "never zero" true (c >= 1);
    prev := c
  done;
  match Israeli_jalfon.run_until_single t ~max_rounds:1_000_000 with
  | Some _ -> Alcotest.(check int) "single token" 1 (Israeli_jalfon.token_count t)
  | None -> Alcotest.fail "did not converge to one token"

let ij_single_token_walks_forever () =
  let rng = Tutil.rng () in
  let t = Israeli_jalfon.create ~rng ~initial_tokens:[ 3 ] () in
  Alcotest.(check bool) "token at 3" true (Israeli_jalfon.has_token t 3);
  for _ = 1 to 100 do
    Israeli_jalfon.step t;
    Alcotest.(check int) "still one token" 1 (Israeli_jalfon.token_count t)
  done

let ij_duplicates_merge_at_creation () =
  let rng = Tutil.rng () in
  let t = Israeli_jalfon.create ~rng ~initial_tokens:[ 1; 1; 2 ] () in
  Alcotest.(check int) "two distinct nodes" 2 (Israeli_jalfon.token_count t);
  Alcotest.(check (option int)) "already counts from current state" None
    (Israeli_jalfon.run_until_single t ~max_rounds:0 |> function
     | Some 0 -> None  (* would mean already single, but it is not *)
     | other -> other)

let ij_on_ring () =
  let rng = Tutil.rng () in
  let ring = Rbb_graph.Build.cycle 16 in
  let t = Israeli_jalfon.create ~graph:ring ~rng ~initial_tokens:[ 0; 8 ] () in
  (match Israeli_jalfon.run_until_single t ~max_rounds:1_000_000 with
  | Some r -> Alcotest.(check bool) "converged" true (r > 0)
  | None -> Alcotest.fail "two tokens on a ring never met");
  Tutil.check_raises_invalid "node out of range" (fun () ->
      ignore (Israeli_jalfon.create ~graph:ring ~rng ~initial_tokens:[ 16 ] ()))

let ij_clique_merge_time_scale () =
  (* On the clique, merging n tokens takes Theta(n) rounds (pairwise
     meeting probability ~ 1/n per round per pair, n/2 merges needed but
     many happen in parallel early on). *)
  let mean_merge n =
    let s =
      Rbb_sim.Replicate.run_floats ~base_seed:64L ~trials:10 (fun rng ->
          let t = Israeli_jalfon.create_full ~rng ~n () in
          match Israeli_jalfon.run_until_single t ~max_rounds:1_000_000 with
          | Some r -> float_of_int r
          | None -> Alcotest.fail "no merge")
    in
    s.Rbb_stats.Summary.mean
  in
  let t64 = mean_merge 64 and t256 = mean_merge 256 in
  let ratio = t256 /. t64 in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f consistent with linear scaling" ratio)
    true
    (ratio > 2. && ratio < 8.)

(* ------------------------------------------------------------------ *)
(* Stopping                                                            *)
(* ------------------------------------------------------------------ *)

let stopping_constant_converges_immediately () =
  let r =
    Rbb_sim.Stopping.run_until_precision ~base_seed:1L ~rel_precision:0.01
      (fun _ -> 42.)
  in
  Alcotest.(check bool) "converged" true r.converged;
  Alcotest.(check int) "minimum trials" 8 r.trials;
  Tutil.check_close "mean" 42. r.summary.Rbb_stats.Summary.mean

let stopping_noisy_needs_more_trials () =
  let f rng = Rbb_prng.Rng.float_unit rng in
  let loose =
    Rbb_sim.Stopping.run_until_precision ~base_seed:2L ~rel_precision:0.5 f
  in
  let tight =
    Rbb_sim.Stopping.run_until_precision ~base_seed:2L ~rel_precision:0.05
      ~max_trials:2000 f
  in
  Alcotest.(check bool) "both converged" true (loose.converged && tight.converged);
  Alcotest.(check bool)
    (Printf.sprintf "tighter needs more trials (%d vs %d)" tight.trials loose.trials)
    true
    (tight.trials > loose.trials);
  (* Achieved precision is as requested. *)
  let s = tight.summary in
  let half = (s.Rbb_stats.Summary.ci95_high -. s.Rbb_stats.Summary.ci95_low) /. 2. in
  Alcotest.(check bool) "precision met" true
    (half <= 0.05 *. Float.abs s.Rbb_stats.Summary.mean)

let stopping_hits_cap () =
  (* Unreachable precision: must stop at max_trials, unconverged. *)
  let f rng = Rbb_prng.Rng.float_unit rng in
  let r =
    Rbb_sim.Stopping.run_until_precision ~base_seed:3L ~rel_precision:1e-9
      ~max_trials:50 f
  in
  Alcotest.(check bool) "not converged" false r.converged;
  Alcotest.(check int) "at cap" 50 r.trials

let stopping_invalid_args () =
  Tutil.check_raises_invalid "bad precision" (fun () ->
      ignore
        (Rbb_sim.Stopping.run_until_precision ~base_seed:1L ~rel_precision:0.
           (fun _ -> 1.)));
  Tutil.check_raises_invalid "bad bounds" (fun () ->
      ignore
        (Rbb_sim.Stopping.run_until_precision ~base_seed:1L ~rel_precision:0.1
           ~min_trials:10 ~max_trials:5 (fun _ -> 1.)))

let suite =
  [
    ( "markov.token_chain",
      [
        Tutil.quick "state counts" token_chain_state_count;
        Tutil.quick "index roundtrip" token_chain_roundtrip;
        Tutil.quick "rows normalized" token_chain_rows_normalized;
        Tutil.quick "initial-state layout" token_chain_initial_state_layout;
        Tutil.quick "load marginal = anonymous chain" token_chain_load_marginal_matches_anonymous_chain;
        Tutil.slow "validates simulator (FIFO)" token_chain_validates_fifo;
        Tutil.slow "validates simulator (LIFO)" token_chain_validates_lifo;
        Tutil.quick "positions uniformize" token_chain_position_marginal_uniformizes;
        Tutil.quick "FIFO/LIFO same load law" token_chain_fifo_lifo_same_loads;
        Tutil.quick "refuses large space" token_chain_refuses_large;
      ] );
    ( "core.israeli_jalfon",
      [
        Tutil.quick "monotone merge, converges" ij_monotone_and_converges;
        Tutil.quick "single token persists" ij_single_token_walks_forever;
        Tutil.quick "duplicates merge at creation" ij_duplicates_merge_at_creation;
        Tutil.quick "two tokens on a ring" ij_on_ring;
        Tutil.slow "clique merge-time scaling" ij_clique_merge_time_scale;
      ] );
    ( "sim.stopping",
      [
        Tutil.quick "constant converges" stopping_constant_converges_immediately;
        Tutil.quick "noisy needs more" stopping_noisy_needs_more_trials;
        Tutil.quick "hits cap" stopping_hits_cap;
        Tutil.quick "invalid args" stopping_invalid_args;
      ] );
  ]
