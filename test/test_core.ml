open Rbb_core

let sum_loads config =
  Array.fold_left ( + ) 0 (Config.unsafe_loads config)

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let bitset_basic () =
  let b = Bitset.create 70 in
  Alcotest.(check int) "length" 70 (Bitset.length b);
  Alcotest.(check bool) "initially absent" false (Bitset.mem b 3);
  Bitset.add b 3;
  Bitset.add b 69;
  Alcotest.(check bool) "mem 3" true (Bitset.mem b 3);
  Alcotest.(check bool) "mem 69" true (Bitset.mem b 69);
  Alcotest.(check int) "cardinal" 2 (Bitset.cardinal b);
  Bitset.add b 3;
  Alcotest.(check int) "idempotent add" 2 (Bitset.cardinal b);
  Bitset.remove b 3;
  Alcotest.(check bool) "removed" false (Bitset.mem b 3);
  Alcotest.(check int) "cardinal after remove" 1 (Bitset.cardinal b);
  Bitset.remove b 3;
  Alcotest.(check int) "idempotent remove" 1 (Bitset.cardinal b)

let bitset_full_and_clear () =
  let b = Bitset.create 9 in
  for i = 0 to 8 do
    Alcotest.(check bool) "not yet full" false (Bitset.is_full b);
    Bitset.add b i
  done;
  Alcotest.(check bool) "full" true (Bitset.is_full b);
  Bitset.clear b;
  Alcotest.(check int) "cleared" 0 (Bitset.cardinal b);
  Alcotest.(check bool) "not full after clear" false (Bitset.is_full b)

let bitset_iter_and_copy () =
  let b = Bitset.create 20 in
  List.iter (Bitset.add b) [ 1; 5; 19 ];
  let collected = ref [] in
  Bitset.iter b (fun i -> collected := i :: !collected);
  Alcotest.(check (list int)) "iter ascending" [ 1; 5; 19 ] (List.rev !collected);
  let c = Bitset.copy b in
  Bitset.add c 7;
  Alcotest.(check bool) "copy independent" false (Bitset.mem b 7);
  Alcotest.(check int) "copy cardinal" 4 (Bitset.cardinal c)

let bitset_errors () =
  let b = Bitset.create 4 in
  Tutil.check_raises_invalid "negative index" (fun () -> Bitset.add b (-1));
  Tutil.check_raises_invalid "too large" (fun () -> ignore (Bitset.mem b 4));
  Tutil.check_raises_invalid "negative size" (fun () -> ignore (Bitset.create (-1)))

let bitset_empty_universe () =
  let b = Bitset.create 0 in
  Alcotest.(check bool) "empty universe is full" true (Bitset.is_full b)

(* ------------------------------------------------------------------ *)
(* Int_deque                                                           *)
(* ------------------------------------------------------------------ *)

let deque_fifo_order () =
  let d = Int_deque.create () in
  for i = 1 to 100 do
    Int_deque.push_back d i
  done;
  Alcotest.(check int) "length" 100 (Int_deque.length d);
  for i = 1 to 100 do
    Alcotest.(check int) "fifo" i (Int_deque.pop_front d)
  done;
  Alcotest.(check bool) "empty" true (Int_deque.is_empty d)

let deque_lifo_order () =
  let d = Int_deque.create () in
  List.iter (Int_deque.push_back d) [ 1; 2; 3 ];
  Alcotest.(check int) "pop_back" 3 (Int_deque.pop_back d);
  Alcotest.(check int) "pop_back" 2 (Int_deque.pop_back d);
  Alcotest.(check int) "pop_front after backs" 1 (Int_deque.pop_front d)

let deque_wraparound () =
  (* Interleave pushes and pops so head walks around the buffer. *)
  let d = Int_deque.create ~capacity:4 () in
  for i = 1 to 1000 do
    Int_deque.push_back d i;
    Int_deque.push_back d (i * 10);
    ignore (Int_deque.pop_front d)
  done;
  Alcotest.(check int) "length" 1000 (Int_deque.length d);
  let l = Int_deque.to_list d in
  Alcotest.(check int) "to_list length" 1000 (List.length l)

let deque_get_and_swap_remove () =
  let d = Int_deque.create () in
  List.iter (Int_deque.push_back d) [ 10; 20; 30; 40 ];
  Alcotest.(check int) "get 0" 10 (Int_deque.get d 0);
  Alcotest.(check int) "get 3" 40 (Int_deque.get d 3);
  let removed = Int_deque.swap_remove d 1 in
  Alcotest.(check int) "swap_remove returns" 20 removed;
  Alcotest.(check int) "length" 3 (Int_deque.length d);
  let remaining = List.sort compare (Int_deque.to_list d) in
  Alcotest.(check (list int)) "multiset preserved" [ 10; 30; 40 ] remaining

let deque_errors () =
  let d = Int_deque.create () in
  Tutil.check_raises_invalid "pop_front empty" (fun () ->
      ignore (Int_deque.pop_front d));
  Tutil.check_raises_invalid "pop_back empty" (fun () ->
      ignore (Int_deque.pop_back d));
  Int_deque.push_back d 1;
  Tutil.check_raises_invalid "get out of range" (fun () -> ignore (Int_deque.get d 1));
  Tutil.check_raises_invalid "swap_remove out of range" (fun () ->
      ignore (Int_deque.swap_remove d (-1)))

let deque_clear () =
  let d = Int_deque.create () in
  List.iter (Int_deque.push_back d) [ 1; 2; 3 ];
  Int_deque.clear d;
  Alcotest.(check bool) "cleared" true (Int_deque.is_empty d);
  Int_deque.push_back d 9;
  Alcotest.(check int) "usable after clear" 9 (Int_deque.pop_front d)

let prop_deque_fifo_is_queue =
  Tutil.prop "deque pop order matches list" ~count:200
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 1000))
    (fun xs ->
      let d = Int_deque.create ~capacity:1 () in
      List.iter (Int_deque.push_back d) xs;
      Int_deque.to_list d = xs)

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let config_constructors () =
  let u = Config.uniform ~n:5 in
  Alcotest.(check int) "uniform balls" 5 (Config.balls u);
  Alcotest.(check int) "uniform max" 1 (Config.max_load u);
  Alcotest.(check int) "uniform empty" 0 (Config.empty_bins u);
  let w = Config.all_in_one ~n:6 ~m:6 () in
  Alcotest.(check int) "worst max" 6 (Config.max_load w);
  Alcotest.(check int) "worst empty" 5 (Config.empty_bins w);
  let b = Config.balanced ~n:4 ~m:10 in
  Alcotest.(check int) "balanced max" 3 (Config.max_load b);
  Alcotest.(check int) "balanced balls" 10 (Config.balls b);
  let w2 = Config.all_in_one ~bin:3 ~n:5 ~m:7 () in
  Alcotest.(check int) "placed at bin" 7 (Config.load w2 3)

let config_random_conserves () =
  let rng = Tutil.rng () in
  let c = Config.random rng ~n:40 ~m:123 in
  Alcotest.(check int) "balls" 123 (Config.balls c);
  Alcotest.(check int) "sum" 123 (sum_loads c)

let config_legitimacy () =
  let threshold = Config.legitimacy_threshold 1024 in
  (* beta=4: ceil(4 * ln 1024) = ceil(27.7) = 28. *)
  Alcotest.(check int) "threshold" 28 threshold;
  Alcotest.(check bool) "uniform is legitimate" true
    (Config.is_legitimate (Config.uniform ~n:1024));
  Alcotest.(check bool) "pile is not" false
    (Config.is_legitimate (Config.all_in_one ~n:1024 ~m:1024 ()));
  Alcotest.(check bool) "custom beta" false
    (Config.is_legitimate ~beta:0.1 (Config.of_array [| 3; 0; 0; 0 |]))

(* The m-aware band ⌈β max(1, m/n) ln n⌉ (Los & Sauerwald): at m = n
   it multiplies by exactly 1.0, so every historical value is
   unchanged; above m = n it scales linearly with m/n; below m = n it
   clamps at the m = n band rather than shrinking. *)
let config_legitimacy_m_aware () =
  let n = 1024 in
  Alcotest.(check int) "m = n is the historical value" 28
    (Config.legitimacy_threshold ~m:n n);
  Alcotest.(check int) "m omitted = m = n"
    (Config.legitimacy_threshold n)
    (Config.legitimacy_threshold ~m:n n);
  (* ceil(4 * 2 * ln 1024) = ceil(55.45) = 56. *)
  Alcotest.(check int) "m = 2n doubles the band" 56
    (Config.legitimacy_threshold ~m:(2 * n) n);
  (* ceil(4 * 8 * ln 1024) = ceil(221.8) = 222. *)
  Alcotest.(check int) "m = 8n" 222
    (Config.legitimacy_threshold ~m:(8 * n) n);
  Alcotest.(check int) "m < n clamps to the m = n band" 28
    (Config.legitimacy_threshold ~m:(n / 2) n);
  Alcotest.(check int) "m = 0 clamps too" 28
    (Config.legitimacy_threshold ~m:0 n);
  (* is_legitimate derives m from the configuration itself: a balanced
     64n configuration (every bin at load 64) is flagrantly
     illegitimate against the n-only band of 28 but comfortably inside
     the m-aware one. *)
  let fat = Config.balanced ~n ~m:(64 * n) in
  Alcotest.(check bool) "max load above the n-only band" true
    (Config.max_load fat > Config.legitimacy_threshold n);
  Alcotest.(check bool) "balanced 64n is legitimate" true
    (Config.is_legitimate fat)

let config_legitimacy_errors () =
  Tutil.check_raises_invalid "beta = 0" (fun () ->
      ignore (Config.legitimacy_threshold ~beta:0.0 64));
  Tutil.check_raises_invalid "beta < 0" (fun () ->
      ignore (Config.legitimacy_threshold ~beta:(-1.0) 64));
  Tutil.check_raises_invalid "beta nan" (fun () ->
      ignore (Config.legitimacy_threshold ~beta:Float.nan 64));
  Tutil.check_raises_invalid "beta infinite" (fun () ->
      ignore (Config.legitimacy_threshold ~beta:Float.infinity 64));
  Tutil.check_raises_invalid "n = 0" (fun () ->
      ignore (Config.legitimacy_threshold 0));
  Tutil.check_raises_invalid "m < 0" (fun () ->
      ignore (Config.legitimacy_threshold ~m:(-1) 64))

let config_histogram_and_copy () =
  let c = Config.of_array [| 0; 2; 2; 1 |] in
  let h = Config.load_histogram c in
  Alcotest.(check int) "bins at load 2" 2 (Rbb_stats.Histogram.Int_hist.count h 2);
  Alcotest.(check int) "bins at load 0" 1 (Rbb_stats.Histogram.Int_hist.count h 0);
  let d = Config.copy c in
  Alcotest.(check bool) "equal" true (Config.equal c d);
  Alcotest.(check bool) "loads is a copy" true (Config.loads c != Config.unsafe_loads c)

let config_errors () =
  Tutil.check_raises_invalid "empty" (fun () -> ignore (Config.of_array [||]));
  Tutil.check_raises_invalid "negative load" (fun () ->
      ignore (Config.of_array [| 1; -1 |]));
  Tutil.check_raises_invalid "bad bin" (fun () ->
      ignore (Config.all_in_one ~bin:9 ~n:3 ~m:1 ()));
  Tutil.check_raises_invalid "load out of range" (fun () ->
      ignore (Config.load (Config.uniform ~n:3) 3))

(* ------------------------------------------------------------------ *)
(* Process                                                             *)
(* ------------------------------------------------------------------ *)

let process_conserves_balls () =
  let rng = Tutil.rng () in
  let p = Process.create ~rng ~init:(Config.random rng ~n:64 ~m:64) () in
  for _ = 1 to 500 do
    Process.step p;
    Alcotest.(check int) "sum = m" 64 (sum_loads (Process.config p))
  done

let process_incremental_counters_match () =
  let rng = Tutil.rng () in
  let p = Process.create ~rng ~init:(Config.all_in_one ~n:32 ~m:32 ()) () in
  for _ = 1 to 200 do
    Process.step p;
    let c = Process.config p in
    Alcotest.(check int) "max load" (Config.max_load c) (Process.max_load p);
    Alcotest.(check int) "empty bins" (Config.empty_bins c) (Process.empty_bins p)
  done

let process_deterministic_under_seed () =
  let run () =
    let rng = Rbb_prng.Rng.create ~seed:2024L () in
    let p = Process.create ~rng ~init:(Config.uniform ~n:50) () in
    Process.run p ~rounds:300;
    Config.loads (Process.config p)
  in
  Alcotest.(check (array int)) "same trajectory" (run ()) (run ())

let process_single_bin () =
  let rng = Tutil.rng () in
  let p = Process.create ~rng ~init:(Config.uniform ~n:1) () in
  Process.run p ~rounds:10;
  Alcotest.(check int) "single bin keeps its ball" 1 (Process.load p 0);
  Alcotest.(check int) "round counter" 10 (Process.round p)

let process_empty_system () =
  let rng = Tutil.rng () in
  let p = Process.create ~rng ~init:(Config.of_array [| 0; 0; 0 |]) () in
  Process.step p;
  Alcotest.(check int) "stays empty" 0 (Process.max_load p);
  Alcotest.(check int) "all empty" 3 (Process.empty_bins p)

(* The launch draws every ball's destination without allocating, so a
   round's allocation is a per-shard constant (each shard derives its own
   stream) with no per-ball term: at most 64 words per shard.  The
   2-domain [Sharded] round is counted over every domain: a minor
   collection folds each domain's allocation into [Gc.quick_stat], and
   the workers are joined before the count is read. *)
let round_allocation ~label ~n step_rounds =
  let rounds = 8 in
  step_rounds 1;
  let words () =
    Gc.minor ();
    (Gc.quick_stat ()).minor_words
  in
  let w0 = words () in
  step_rounds rounds;
  let per_round = (words () -. w0) /. float_of_int rounds in
  let budget = 64 * Process.shard_count ~bins:n in
  if per_round > float_of_int budget then
    Alcotest.failf "%s: %.0f minor words per round, budget %d" label per_round
      budget

let process_round_allocation ~d ~capacity () =
  let n = 1 lsl 16 in
  let p =
    Process.create ~d_choices:d ~capacity ~rng:(Tutil.rng ())
      ~init:(Config.random (Tutil.rng ()) ~n ~m:(2 * n)) ()
  in
  round_allocation
    ~label:(Printf.sprintf "d = %d, capacity = %d" d capacity)
    ~n
    (fun rounds -> Process.run p ~rounds)

let sharded_round_allocation () =
  let n = 1 lsl 16 in
  let s =
    Rbb_sim.Sharded.create ~shards:4 ~domains:2 ~rng:(Tutil.rng ())
      ~init:(Config.uniform ~n) ()
  in
  round_allocation ~label:"sharded, 2 domains" ~n (fun rounds ->
      Rbb_sim.Sharded.run s ~rounds)

(* The launch kernel as a plain per-ball loop: each destination is added
   to [arrivals] as soon as it is drawn.  The oracle for
   [Process.step_launch], which defers the increments. *)
let reference_launch ~rng ~loads ~arrivals ~capacity ~d ?alias ~lo ~hi () =
  let bins = Array.length loads in
  for u = lo to hi - 1 do
    for _ = 1 to Stdlib.min loads.(u) capacity do
      let v =
        match alias with
        | Some a -> Rbb_prng.Alias.draw a rng
        | None ->
            let best = ref (Rbb_prng.Rng.int_below rng bins) in
            for _ = 2 to d do
              let v = Rbb_prng.Rng.int_below rng bins in
              if loads.(v) < loads.(!best) then best := v
            done;
            !best
      in
      arrivals.(v) <- arrivals.(v) + 1
    done
  done

(* n = 10 000 bins: two full blocks and a partial one.  m = 4n plus one
   bin of 7000, so capacity 3 and 5000 launch more balls per block than
   the kernel's scratch holds. *)
let launch_loads () =
  let n = 10_000 in
  let loads = Config.loads (Config.random (Tutil.rng ()) ~n ~m:(4 * n)) in
  loads.(4100) <- 7000;
  loads

let launch_slices =
  [ (0, 4096); (4096, 8192); (8192, 10_000); (0, 1234); (1234, 9001);
    (9001, 10_000); (0, 10_000); (5000, 5000) ]

let launch_matches_reference () =
  let loads = launch_loads () in
  let bins = Array.length loads in
  let weights = Array.init bins (fun u -> float_of_int (1 + (u mod 7))) in
  let alias = Rbb_prng.Alias.create weights in
  List.iter
    (fun (d, alias) ->
      List.iter
        (fun capacity ->
          List.iteri
            (fun i (lo, hi) ->
              let seed = Int64.of_int (1000 + i) in
              let r_expect = Tutil.rng ~seed () and r_got = Tutil.rng ~seed () in
              let expect = Array.make bins 0 and got = Array.make bins 0 in
              reference_launch ~rng:r_expect ~loads ~arrivals:expect ~capacity
                ~d ?alias ~lo ~hi ();
              Process.step_launch ~rng:r_got ~loads ~arrivals:got ~capacity ~d
                ?alias ~lo ~hi ();
              let case =
                Printf.sprintf "d = %d%s, capacity %d, [%d, %d)" d
                  (if alias = None then "" else " (alias)")
                  capacity lo hi
              in
              Alcotest.(check (array int)) case expect got;
              Alcotest.(check int64)
                (case ^ ": stream position")
                (Rbb_prng.Rng.next_u64 r_expect)
                (Rbb_prng.Rng.next_u64 r_got))
            launch_slices)
        [ 1; 3; 5000 ])
    [ (1, None); (2, None); (3, None); (1, Some alias) ]

(* Two domains launch different blocks of the same round at the same
   time, each into its own arrivals; their sum equals the sequential
   launch of every block. *)
let launch_two_domains () =
  let loads = launch_loads () in
  let bins = Array.length loads in
  let blocks = Process.shard_count ~bins in
  let launch launch_fn ~capacity ~arrivals b =
    let lo, hi = Process.shard_bounds ~bins ~shard:b in
    let rng = Rbb_prng.Stream.for_shard ~master:99L ~round:3 ~shard:b () in
    launch_fn ~rng ~loads ~arrivals ~capacity ~d:2 ?alias:None ~lo ~hi ()
  in
  List.iter
    (fun capacity ->
      let expect = Array.make bins 0 in
      for b = 0 to blocks - 1 do
        launch reference_launch ~capacity ~arrivals:expect b
      done;
      let worker w () =
        let arrivals = Array.make bins 0 in
        for _ = 1 to 4 do
          Array.fill arrivals 0 bins 0;
          for b = 0 to blocks - 1 do
            if b mod 2 = w then
              launch Process.step_launch ~capacity ~arrivals b
          done
        done;
        arrivals
      in
      let d0 = Domain.spawn (worker 0) and d1 = Domain.spawn (worker 1) in
      let a0 = Domain.join d0 and a1 = Domain.join d1 in
      Alcotest.(check (array int))
        (Printf.sprintf "capacity %d" capacity)
        expect
        (Array.mapi (fun u x -> x + a1.(u)) a0))
    [ 1; 5000 ]

let launch_validates_slice () =
  let loads = Array.make 10 1 in
  let launch ?alias ?(arrivals = Array.make 10 0) ~lo ~hi () =
    Process.step_launch ~rng:(Tutil.rng ()) ~loads ~arrivals ~capacity:1 ~d:1
      ?alias ~lo ~hi ()
  in
  Tutil.check_raises_invalid "lo < 0" (fun () -> launch ~lo:(-1) ~hi:5 ());
  Tutil.check_raises_invalid "hi < lo" (fun () -> launch ~lo:5 ~hi:4 ());
  Tutil.check_raises_invalid "hi > length loads" (fun () ->
      launch ~lo:0 ~hi:11 ());
  Tutil.check_raises_invalid "arrivals shorter than loads" (fun () ->
      launch ~arrivals:(Array.make 9 0) ~lo:0 ~hi:10 ());
  Tutil.check_raises_invalid "alias larger than loads" (fun () ->
      launch ~alias:(Rbb_prng.Alias.create (Array.make 11 1.)) ~lo:0 ~hi:10 ())

let process_converges_from_worst () =
  let rng = Tutil.rng () in
  let n = 256 in
  let p = Process.create ~rng ~init:(Config.all_in_one ~n ~m:n ()) () in
  match Process.run_until_legitimate p ~max_rounds:(20 * n) with
  | None -> Alcotest.fail "did not converge within 20n rounds"
  | Some r ->
      Alcotest.(check bool) "converged within 4n" true (r <= 4 * n)

let process_stays_legitimate () =
  let rng = Tutil.rng () in
  let n = 256 in
  let p = Process.create ~rng ~init:(Config.uniform ~n) () in
  let threshold = Config.legitimacy_threshold n in
  let worst = ref 0 in
  for _ = 1 to 20 * n do
    Process.step p;
    if Process.max_load p > !worst then worst := Process.max_load p
  done;
  Alcotest.(check bool)
    (Printf.sprintf "max load %d stays below threshold %d" !worst threshold)
    true (!worst <= threshold)

let process_empty_bins_quarter () =
  (* Lemma 1/2: after round 1 the empty-bin count stays >= n/4. *)
  let rng = Tutil.rng () in
  let n = 512 in
  let p = Process.create ~rng ~init:(Config.uniform ~n) () in
  Process.step p;
  for _ = 1 to 2000 do
    Process.step p;
    Alcotest.(check bool) "empty >= n/4" true (4 * Process.empty_bins p >= n)
  done

let process_run_until_immediate () =
  let rng = Tutil.rng () in
  let p = Process.create ~rng ~init:(Config.uniform ~n:16) () in
  Alcotest.(check (option int)) "already satisfied" (Some 0)
    (Engine.run_until (Engine.T ((module Process), p)) ~max_rounds:5
       ~stop:(fun _ -> true));
  Alcotest.(check (option int)) "never satisfied" None
    (Engine.run_until (Engine.T ((module Process), p)) ~max_rounds:5
       ~stop:(fun _ -> false))

let process_rounds_validation () =
  (* Regression: negative round counts used to be silent no-ops. *)
  let mk () = Process.create ~rng:(Tutil.rng ()) ~init:(Config.uniform ~n:16) () in
  let p = mk () in
  Tutil.check_raises_invalid "run rounds < 0" (fun () ->
      Process.run p ~rounds:(-1));
  Tutil.check_raises_invalid "run_until max_rounds < 0" (fun () ->
      ignore
        (Engine.run_until (Engine.T ((module Process), p)) ~max_rounds:(-3)
           ~stop:(fun _ -> true)));
  let p = mk () in
  let before = Process.config p in
  Process.run p ~rounds:0;
  Alcotest.(check bool) "rounds = 0 is a no-op" true
    (Config.equal before (Process.config p) && Process.round p = 0)

let process_d_choices_helps () =
  (* Two-choices keeps the long-run max load strictly below one-choice
     (statistically large gap at n = 512; deterministic under seed). *)
  let run d =
    let rng = Rbb_prng.Rng.create ~seed:7L () in
    let p = Process.create ~d_choices:d ~rng ~init:(Config.uniform ~n:512) () in
    let worst = ref 0 in
    for _ = 1 to 3000 do
      Process.step p;
      if Process.max_load p > !worst then worst := Process.max_load p
    done;
    !worst
  in
  let m1 = run 1 and m2 = run 2 in
  Alcotest.(check bool)
    (Printf.sprintf "two-choices max %d < one-choice max %d" m2 m1)
    true (m2 < m1)

let process_set_config () =
  let rng = Tutil.rng () in
  let p = Process.create ~rng ~init:(Config.uniform ~n:8) () in
  Process.set_config p (Config.all_in_one ~n:8 ~m:8 ());
  Alcotest.(check int) "new max" 8 (Process.max_load p);
  Alcotest.(check int) "new empty" 7 (Process.empty_bins p);
  Tutil.check_raises_invalid "wrong n" (fun () ->
      Process.set_config p (Config.uniform ~n:9));
  Tutil.check_raises_invalid "wrong m" (fun () ->
      Process.set_config p (Config.of_array [| 1; 1; 1; 1; 1; 1; 1; 2 |]))

let process_invalid_d () =
  let rng = Tutil.rng () in
  Tutil.check_raises_invalid "d = 0" (fun () ->
      ignore (Process.create ~d_choices:0 ~rng ~init:(Config.uniform ~n:4) ()))

let prop_process_conservation =
  Tutil.prop "ball conservation over random runs" ~count:50
    QCheck2.Gen.(triple (int_range 2 64) (int_range 0 128) (int_range 0 1_000_000))
    (fun (n, m, salt) ->
      let rng = Rbb_prng.Rng.create ~seed:(Int64.of_int salt) () in
      let p = Process.create ~rng ~init:(Config.random rng ~n ~m) () in
      Process.run p ~rounds:50;
      sum_loads (Process.config p) = m)

(* ------------------------------------------------------------------ *)
(* Tetris                                                              *)
(* ------------------------------------------------------------------ *)

let tetris_batch_three_quarters () =
  let rng = Tutil.rng () in
  let t = Tetris.create ~rng ~init:(Config.uniform ~n:16) () in
  Tetris.step t;
  Alcotest.(check int) "batch = 3n/4" 12 (Tetris.arrivals_this_round t)

let tetris_fixed_batch () =
  let rng = Tutil.rng () in
  let t = Tetris.create ~arrivals:(Tetris.Fixed 5) ~rng ~init:(Config.uniform ~n:16) () in
  Tetris.step t;
  Alcotest.(check int) "fixed batch" 5 (Tetris.arrivals_this_round t)

let tetris_binomial_batch_mean () =
  let rng = Tutil.rng () in
  let t =
    Tetris.create ~arrivals:(Tetris.Binomial_rate 0.5) ~rng
      ~init:(Config.uniform ~n:100) ()
  in
  let w = Rbb_stats.Welford.create () in
  for _ = 1 to 2000 do
    Tetris.step t;
    Rbb_stats.Welford.add w (float_of_int (Tetris.arrivals_this_round t))
  done;
  Tutil.check_rel ~tol:0.05 "mean batch n*lambda" 50. (Rbb_stats.Welford.mean w)

let tetris_ball_accounting () =
  let rng = Tutil.rng () in
  let t = Tetris.create ~rng ~init:(Config.random rng ~n:64 ~m:64) () in
  for _ = 1 to 300 do
    Tetris.step t;
    Alcotest.(check int) "total_balls = sum of loads" (Tetris.total_balls t)
      (sum_loads (Tetris.config t))
  done

let tetris_first_empty_initially_empty_bins () =
  let rng = Tutil.rng () in
  let t = Tetris.create ~rng ~init:(Config.all_in_one ~n:8 ~m:8 ()) () in
  let fe = Tetris.first_empty_rounds t in
  Alcotest.(check int) "initially empty bin reports 0" 0 fe.(3);
  Alcotest.(check bool) "loaded bin not yet empty" true (fe.(0) > 0 || fe.(0) = max_int)

let tetris_all_bins_empty_within_5n () =
  (* Lemma 4 from the worst start. *)
  let rng = Tutil.rng () in
  let n = 128 in
  let t = Tetris.create ~rng ~init:(Config.all_in_one ~n ~m:n ()) () in
  Tetris.run t ~rounds:(5 * n);
  match Tetris.all_bins_emptied_by t with
  | None -> Alcotest.fail "some bin never emptied within 5n rounds"
  | Some r -> Alcotest.(check bool) "within 5n" true (r <= 5 * n)

let tetris_max_load_stays_logarithmic () =
  let rng = Tutil.rng () in
  let n = 256 in
  let t = Tetris.create ~rng ~init:(Config.uniform ~n) () in
  let worst = ref 0 in
  for _ = 1 to 10 * n do
    Tetris.step t;
    if Tetris.max_load t > !worst then worst := Tetris.max_load t
  done;
  (* Tetris dominates the RBB process, so its constant is larger; beta=8
     is the generous O(log n) band used for the dominating process. *)
  Alcotest.(check bool)
    (Printf.sprintf "tetris max %d <= threshold" !worst)
    true
    (!worst <= Config.legitimacy_threshold ~beta:8.0 n)

let tetris_incremental_counters () =
  let rng = Tutil.rng () in
  let t = Tetris.create ~rng ~init:(Config.random rng ~n:32 ~m:32) () in
  for _ = 1 to 100 do
    Tetris.step t;
    let c = Tetris.config t in
    Alcotest.(check int) "max" (Config.max_load c) (Tetris.max_load t);
    Alcotest.(check int) "empty" (Config.empty_bins c) (Tetris.empty_bins t)
  done

let tetris_invalid_args () =
  let rng = Tutil.rng () in
  Tutil.check_raises_invalid "negative fixed" (fun () ->
      ignore (Tetris.create ~arrivals:(Tetris.Fixed (-1)) ~rng ~init:(Config.uniform ~n:4) ()));
  Tutil.check_raises_invalid "bad rate" (fun () ->
      ignore
        (Tetris.create ~arrivals:(Tetris.Binomial_rate 1.5) ~rng
           ~init:(Config.uniform ~n:4) ()))

(* ------------------------------------------------------------------ *)
(* Drift chain                                                         *)
(* ------------------------------------------------------------------ *)

let drift_zero_absorbing () =
  let rng = Tutil.rng () in
  let c = Drift_chain.create ~n:64 rng in
  Alcotest.(check int) "step from 0" 0 (Drift_chain.step c 0);
  Alcotest.(check (option int)) "tau from 0" (Some 0)
    (Drift_chain.absorption_time c ~start:0 ~cap:10)

let drift_negative_drift () =
  let rng = Tutil.rng () in
  let c = Drift_chain.create ~n:64 rng in
  Tutil.check_close "mean increment" 0.75 (Drift_chain.mean_increment c)

let drift_tau_at_least_start () =
  (* Z decreases by at most one per round, so tau >= start always. *)
  let rng = Tutil.rng () in
  let c = Drift_chain.create ~n:64 rng in
  for _ = 1 to 200 do
    match Drift_chain.absorption_time c ~start:10 ~cap:100_000 with
    | None -> Alcotest.fail "chain did not absorb (cap far above bound)"
    | Some tau -> Alcotest.(check bool) "tau >= start" true (tau >= 10)
  done

let drift_tail_decays () =
  (* The drift is -1/4 per round, so E[tau | start=10] = 40; the chance
     of surviving past 160 rounds needs a +30 fluctuation against sd
     ~ sqrt(0.75 * 160) ~ 11, i.e. well under 1%. *)
  let rng = Tutil.rng () in
  let c = Drift_chain.create ~n:64 rng in
  let w = Rbb_stats.Welford.create () in
  let exceed = ref 0 in
  let trials = 2000 in
  for _ = 1 to trials do
    match Drift_chain.absorption_time c ~start:10 ~cap:1_000_000 with
    | None -> Alcotest.fail "no absorption"
    | Some tau ->
        Rbb_stats.Welford.add w (float_of_int tau);
        if tau > 160 then incr exceed
  done;
  Tutil.check_rel ~tol:0.1 "mean tau = k/(1-3/4)" 40. (Rbb_stats.Welford.mean w);
  Alcotest.(check bool) "tail is small" true
    (float_of_int !exceed /. float_of_int trials < 0.02)

let drift_bound_function () =
  Tutil.check_close ~tol:1e-12 "e^{-1}" (Float.exp (-1.))
    (Drift_chain.tail_bound ~t_rounds:144);
  Tutil.check_raises_invalid "negative start" (fun () ->
      let rng = Tutil.rng () in
      let c = Drift_chain.create ~n:8 rng in
      ignore (Drift_chain.absorption_time c ~start:(-1) ~cap:10))

(* ------------------------------------------------------------------ *)
(* Coupling                                                            *)
(* ------------------------------------------------------------------ *)

let coupling_domination_from_sparse_start () =
  (* Start with >= n/4 empty bins (random throw gives ~ n/e empty);
     Lemma 3's coupling should then dominate in every round and case
     (ii) should never fire. *)
  let rng = Tutil.rng () in
  let n = 256 in
  let init = Config.random rng ~n ~m:n in
  Alcotest.(check bool) "start has >= n/4 empty" true
    (4 * Config.empty_bins init >= n);
  let c = Coupling.create ~rng ~init () in
  Coupling.run c ~rounds:2000;
  Alcotest.(check int) "case (ii) never fires" 0 (Coupling.case_ii_rounds c);
  Alcotest.(check int) "dominated every round" 2000 (Coupling.dominated_rounds c);
  Alcotest.(check bool) "running max dominated" true
    (Coupling.tetris_running_max c >= Coupling.rbb_running_max c)

let coupling_counters_consistent () =
  let rng = Tutil.rng () in
  let c = Coupling.create ~rng ~init:(Config.random rng ~n:64 ~m:64) () in
  Coupling.run c ~rounds:100;
  Alcotest.(check int) "round counter" 100 (Coupling.round c);
  Alcotest.(check bool) "dominated_rounds <= rounds" true
    (Coupling.dominated_rounds c <= 100);
  Alcotest.(check int) "rbb conserves balls" 64 (sum_loads (Coupling.rbb_config c))

let coupling_initial_state () =
  let rng = Tutil.rng () in
  let init = Config.random rng ~n:32 ~m:32 in
  let c = Coupling.create ~rng ~init () in
  Alcotest.(check bool) "initially dominated" true (Coupling.dominated_now c);
  Alcotest.(check bool) "equal starts" true
    (Config.equal (Coupling.rbb_config c) (Coupling.tetris_config c))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let metrics_aggregation () =
  let m = Metrics.create ~n:8 in
  Metrics.observe m ~max_load:3 ~empty_bins:4;
  Metrics.observe m ~max_load:5 ~empty_bins:1;
  Metrics.observe m ~max_load:2 ~empty_bins:6;
  Alcotest.(check int) "rounds" 3 (Metrics.rounds m);
  Alcotest.(check int) "running max" 5 (Metrics.running_max_load m);
  Tutil.check_close "mean max load" (10. /. 3.) (Metrics.mean_max_load m);
  Tutil.check_close "min empty fraction" (1. /. 8.) (Metrics.min_empty_fraction m);
  Alcotest.(check int) "below quarter count" 1 (Metrics.rounds_below_quarter m);
  Alcotest.(check int) "histogram total" 3
    (Rbb_stats.Histogram.Int_hist.total (Metrics.max_load_histogram m))

let metrics_empty () =
  let m = Metrics.create ~n:4 in
  Alcotest.(check int) "no rounds" 0 (Metrics.rounds m);
  Tutil.check_close "min empty fraction default" 1. (Metrics.min_empty_fraction m);
  Tutil.check_raises_invalid "bad n" (fun () -> ignore (Metrics.create ~n:0))

(* ------------------------------------------------------------------ *)
(* Token process                                                       *)
(* ------------------------------------------------------------------ *)

let token_conservation_and_consistency () =
  let rng = Tutil.rng () in
  let t = Token_process.create ~rng ~init:(Config.random rng ~n:32 ~m:32) () in
  for _ = 1 to 200 do
    Token_process.step t;
    (* positions and queues agree *)
    let loads = Array.make 32 0 in
    for b = 0 to 31 do
      let p = Token_process.position t b in
      loads.(p) <- loads.(p) + 1
    done;
    for u = 0 to 31 do
      Alcotest.(check int) "queue length = positions" loads.(u) (Token_process.load t u)
    done
  done

let token_fifo_single_bin_round_robin () =
  (* n = 1: every destination is bin 0, so FIFO cycles the balls in
     order — after m rounds each ball moved exactly once. *)
  let rng = Tutil.rng () in
  let m = 5 in
  let t =
    Token_process.create ~strategy:Token_process.Fifo ~rng
      ~init:(Config.all_in_one ~n:1 ~m ()) ()
  in
  Token_process.run t ~rounds:m;
  for b = 0 to m - 1 do
    Alcotest.(check int) "each ball moved once" 1 (Token_process.progress t b)
  done

let token_lifo_single_bin_starvation () =
  (* n = 1 under LIFO: the newest ball is re-selected forever. *)
  let rng = Tutil.rng () in
  let m = 5 in
  let t =
    Token_process.create ~strategy:Token_process.Lifo ~rng
      ~init:(Config.all_in_one ~n:1 ~m ()) ()
  in
  Token_process.run t ~rounds:10;
  Alcotest.(check int) "last ball hogs the bin" 10 (Token_process.progress t (m - 1));
  Alcotest.(check int) "first ball starves" 0 (Token_process.progress t 0);
  Alcotest.(check int) "min progress" 0 (Token_process.min_progress t)

let token_moves_per_round_equals_nonempty_bins () =
  let rng = Tutil.rng () in
  let t = Token_process.create ~rng ~init:(Config.random rng ~n:24 ~m:24) () in
  for _ = 1 to 100 do
    let nonempty = 24 - Token_process.empty_bins t in
    let before = Array.init 24 (Token_process.progress t) in
    Token_process.step t;
    let after = Array.init 24 (Token_process.progress t) in
    let moved = ref 0 in
    for b = 0 to 23 do
      moved := !moved + (after.(b) - before.(b))
    done;
    Alcotest.(check int) "moves = nonempty bins" nonempty !moved
  done

let token_matches_anonymous_process_law () =
  (* Token and anonymous engines driven by the same seed do not share
     draws, but their max loads should be statistically alike; here we
     only check both stay within the legitimate band on a short run. *)
  let rng = Tutil.rng () in
  let n = 128 in
  let t = Token_process.create ~rng ~init:(Config.uniform ~n) () in
  Token_process.run t ~rounds:(4 * n);
  Alcotest.(check bool) "token process stays legitimate" true
    (Token_process.max_load t <= Config.legitimacy_threshold n)

let token_cover_tracking () =
  let rng = Tutil.rng () in
  let n = 16 in
  let t =
    Token_process.create ~track_cover:true ~rng ~init:(Config.uniform ~n) ()
  in
  Alcotest.(check int) "initial visited" 1 (Token_process.visited_count t 0);
  Alcotest.(check int) "initially none covered" 0 (Token_process.covered_balls t);
  match Token_process.run_until_covered t ~max_rounds:100_000 with
  | None -> Alcotest.fail "did not cover"
  | Some r ->
      Alcotest.(check bool) "cover time positive" true (r > 0);
      Alcotest.(check bool) "all covered" true (Token_process.all_covered t);
      Alcotest.(check (option int)) "cover_time agrees" (Some r)
        (Token_process.cover_time t);
      for b = 0 to n - 1 do
        Alcotest.(check int) "every ball visited all bins" n
          (Token_process.visited_count t b)
      done

let token_cover_disabled_raises () =
  let rng = Tutil.rng () in
  let t = Token_process.create ~rng ~init:(Config.uniform ~n:4) () in
  Tutil.check_raises_invalid "visited_count" (fun () ->
      ignore (Token_process.visited_count t 0));
  Tutil.check_raises_invalid "cover_time" (fun () ->
      ignore (Token_process.cover_time t))

let token_graph_mode_respects_edges () =
  let rng = Tutil.rng () in
  let n = 12 in
  let ring = Rbb_graph.Build.cycle n in
  let t =
    Token_process.create ~graph:ring ~rng ~init:(Config.uniform ~n) ()
  in
  for _ = 1 to 100 do
    let before = Array.init n (Token_process.position t) in
    Token_process.step t;
    for b = 0 to n - 1 do
      let p = before.(b) and q = Token_process.position t b in
      if p <> q then
        Alcotest.(check bool) "moved along a ring edge" true
          (q = (p + 1) mod n || q = (p + n - 1) mod n)
    done
  done

let token_adversary_pile () =
  let rng = Tutil.rng () in
  let t = Token_process.create ~rng ~init:(Config.uniform ~n:8) () in
  Token_process.adversary_pile t ~bin:3;
  Alcotest.(check int) "all in bin 3" 8 (Token_process.load t 3);
  Alcotest.(check int) "max load" 8 (Token_process.max_load t);
  for b = 0 to 7 do
    Alcotest.(check int) "position updated" 3 (Token_process.position t b)
  done

let token_adversary_reshuffle_conserves () =
  let rng = Tutil.rng () in
  let t = Token_process.create ~rng ~init:(Config.uniform ~n:16) () in
  Token_process.adversary_reshuffle t;
  let total = ref 0 in
  for u = 0 to 15 do
    total := !total + Token_process.load t u
  done;
  Alcotest.(check int) "balls conserved" 16 !total

let token_adversary_place_invalid () =
  let rng = Tutil.rng () in
  let t = Token_process.create ~rng ~init:(Config.uniform ~n:4) () in
  Tutil.check_raises_invalid "target out of range" (fun () ->
      Token_process.adversary_place t (fun _ -> 4))

let token_graph_size_mismatch () =
  let rng = Tutil.rng () in
  Tutil.check_raises_invalid "mismatch" (fun () ->
      ignore
        (Token_process.create
           ~graph:(Rbb_graph.Build.cycle 5)
           ~rng ~init:(Config.uniform ~n:4) ()))

let token_delay_histogram_populated () =
  let rng = Tutil.rng () in
  let t = Token_process.create ~rng ~init:(Config.uniform ~n:32) () in
  Token_process.run t ~rounds:100;
  let h = Token_process.delay_histogram t in
  Alcotest.(check bool) "delays recorded" true
    (Rbb_stats.Histogram.Int_hist.total h > 0)

let prop_token_conservation =
  Tutil.prop "token engine conserves balls" ~count:30
    QCheck2.Gen.(triple (int_range 1 32) (int_range 0 64) (int_range 0 1_000_000))
    (fun (n, m, salt) ->
      let rng = Rbb_prng.Rng.create ~seed:(Int64.of_int salt) () in
      let t = Token_process.create ~rng ~init:(Config.random rng ~n ~m) () in
      Token_process.run t ~rounds:30;
      sum_loads (Token_process.config t) = m)

(* ------------------------------------------------------------------ *)
(* Walks                                                               *)
(* ------------------------------------------------------------------ *)

let walks_conserve_on_graphs () =
  let rng = Tutil.rng () in
  let g = Rbb_graph.Build.torus2d ~rows:4 ~cols:4 in
  let w = Walks.create ~rng ~graph:g ~init:(Config.uniform ~n:16) () in
  for _ = 1 to 200 do
    Walks.step w;
    Alcotest.(check int) "sum conserved" 16 (sum_loads (Walks.config w))
  done

let walks_complete_matches_process_law () =
  let rng = Tutil.rng () in
  let n = 128 in
  let w =
    Walks.create ~rng ~graph:(Rbb_graph.Csr.complete n) ~init:(Config.uniform ~n) ()
  in
  Walks.run w ~rounds:(4 * n);
  Alcotest.(check bool) "legitimate band" true
    (Walks.max_load w <= Config.legitimacy_threshold n)

let walks_single_cover_clique () =
  let rng = Tutil.rng () in
  let n = 64 in
  let w = Rbb_stats.Welford.create () in
  for _ = 1 to 50 do
    match
      Walks.single_walk_cover_time ~rng ~graph:(Rbb_graph.Csr.complete n) ~start:0
        ~max_rounds:1_000_000
    with
    | None -> Alcotest.fail "walk did not cover"
    | Some r -> Rbb_stats.Welford.add w (float_of_int r)
  done;
  (* Coupon collector: expectation n * H_n ≈ 303.6 for n = 64. *)
  Tutil.check_rel ~tol:0.15 "coupon collector mean"
    (Walks.clique_single_cover_expectation n)
    (Rbb_stats.Welford.mean w)

let walks_cover_expectation_closed_form () =
  Tutil.check_close "n=2: 2*(1+1/2)" 3. (Walks.clique_single_cover_expectation 2);
  Tutil.check_close "n=1" 1. (Walks.clique_single_cover_expectation 1)

let walks_size_mismatch () =
  let rng = Tutil.rng () in
  Tutil.check_raises_invalid "mismatch" (fun () ->
      ignore
        (Walks.create ~rng ~graph:(Rbb_graph.Build.cycle 5) ~init:(Config.uniform ~n:4) ()))

(* ------------------------------------------------------------------ *)
(* Adversary                                                           *)
(* ------------------------------------------------------------------ *)

let adversary_schedule () =
  Alcotest.(check bool) "never" false (Adversary.is_faulty_round Adversary.Never 5);
  Alcotest.(check bool) "every 3 at 6" true (Adversary.is_faulty_round (Adversary.Every 3) 6);
  Alcotest.(check bool) "every 3 at 7" false (Adversary.is_faulty_round (Adversary.Every 3) 7);
  Alcotest.(check bool) "explicit" true
    (Adversary.is_faulty_round (Adversary.At_rounds [ 2; 9 ]) 9);
  Tutil.check_raises_invalid "Every 0" (fun () ->
      ignore (Adversary.is_faulty_round (Adversary.Every 0) 1))

let adversary_perturb_conserves () =
  let rng = Tutil.rng () in
  let q = Config.random rng ~n:16 ~m:16 in
  List.iter
    (fun action ->
      let q' = Adversary.perturb action rng q in
      Alcotest.(check int) "balls" 16 (Config.balls q');
      Alcotest.(check int) "bins" 16 (Config.n q'))
    [ Adversary.Pile_into 3; Adversary.Reshuffle; Adversary.Rotate 5 ]

let adversary_rotate_exact () =
  let rng = Tutil.rng () in
  let q = Config.of_array [| 3; 1; 0; 0 |] in
  let q' = Adversary.perturb (Adversary.Rotate 1) rng q in
  Alcotest.(check (array int)) "rotated right by 1" [| 0; 3; 1; 0 |] (Config.loads q');
  let q'' = Adversary.perturb (Adversary.Rotate (-1)) rng q in
  Alcotest.(check (array int)) "rotated left by 1" [| 1; 0; 0; 3 |] (Config.loads q'')

let adversary_run_with_faults_recovers () =
  let rng = Tutil.rng () in
  let n = 128 in
  let p = Process.create ~rng ~init:(Config.uniform ~n) () in
  (* Faults at 10n and 20n; the last 5n fault-free rounds leave ample
     time for the O(n) recovery of Theorem 1. *)
  let metrics =
    Adversary.run_with_faults ~schedule:(Adversary.Every (10 * n))
      ~action:(Adversary.Pile_into 0) ~rounds:(25 * n) p
  in
  Alcotest.(check int) "all rounds recorded" (25 * n) (Metrics.rounds metrics);
  (* The fault spikes the max load to n; metrics observe after the next
     step, by which point the piled bin has released one ball (and may
     have received the re-assigned one back). *)
  Alcotest.(check bool) "fault visible" true
    (Metrics.running_max_load metrics >= n - 1);
  (* ...but the final configuration has recovered to legitimate. *)
  Alcotest.(check bool) "recovered at end" true
    (Process.max_load p <= Config.legitimacy_threshold n)

let suite =
  [
    ( "core.bitset",
      [
        Tutil.quick "basic" bitset_basic;
        Tutil.quick "full/clear" bitset_full_and_clear;
        Tutil.quick "iter/copy" bitset_iter_and_copy;
        Tutil.quick "errors" bitset_errors;
        Tutil.quick "empty universe" bitset_empty_universe;
      ] );
    ( "core.int_deque",
      [
        Tutil.quick "fifo order" deque_fifo_order;
        Tutil.quick "lifo order" deque_lifo_order;
        Tutil.quick "wraparound" deque_wraparound;
        Tutil.quick "get/swap_remove" deque_get_and_swap_remove;
        Tutil.quick "errors" deque_errors;
        Tutil.quick "clear" deque_clear;
        prop_deque_fifo_is_queue;
      ] );
    ( "core.config",
      [
        Tutil.quick "constructors" config_constructors;
        Tutil.quick "random conserves" config_random_conserves;
        Tutil.quick "legitimacy" config_legitimacy;
        Tutil.quick "legitimacy: m-aware band" config_legitimacy_m_aware;
        Tutil.quick "legitimacy: invalid arguments" config_legitimacy_errors;
        Tutil.quick "histogram/copy" config_histogram_and_copy;
        Tutil.quick "errors" config_errors;
      ] );
    ( "core.process",
      [
        Tutil.quick "conserves balls" process_conserves_balls;
        Tutil.quick "incremental counters" process_incremental_counters_match;
        Tutil.quick "deterministic" process_deterministic_under_seed;
        Tutil.quick "single bin" process_single_bin;
        Tutil.quick "empty system" process_empty_system;
        Tutil.slow "converges from worst (Thm 1)" process_converges_from_worst;
        Tutil.slow "stays legitimate (Thm 1)" process_stays_legitimate;
        Tutil.slow "empty bins >= n/4 (Lemma 2)" process_empty_bins_quarter;
        Tutil.quick "run_until" process_run_until_immediate;
        Tutil.quick "rounds validation" process_rounds_validation;
        Tutil.slow "two-choices helps" process_d_choices_helps;
        Tutil.quick "set_config" process_set_config;
        Tutil.quick "invalid d" process_invalid_d;
        Tutil.quick "round allocation, d = 1"
          (process_round_allocation ~d:1 ~capacity:1);
        Tutil.quick "round allocation, d = 2"
          (process_round_allocation ~d:2 ~capacity:1);
        Tutil.quick "round allocation, capacity 3"
          (process_round_allocation ~d:1 ~capacity:3);
        Tutil.quick "round allocation, sharded 2 domains" sharded_round_allocation;
        Tutil.quick "launch kernel = per-ball reference" launch_matches_reference;
        Tutil.quick "launch kernel on two domains" launch_two_domains;
        Tutil.quick "launch kernel slice validation" launch_validates_slice;
        prop_process_conservation;
      ] );
    ( "core.tetris",
      [
        Tutil.quick "3n/4 batch" tetris_batch_three_quarters;
        Tutil.quick "fixed batch" tetris_fixed_batch;
        Tutil.slow "binomial batch mean" tetris_binomial_batch_mean;
        Tutil.quick "ball accounting" tetris_ball_accounting;
        Tutil.quick "first-empty bookkeeping" tetris_first_empty_initially_empty_bins;
        Tutil.slow "all bins empty within 5n (Lemma 4)" tetris_all_bins_empty_within_5n;
        Tutil.slow "max load logarithmic (Lemma 6)" tetris_max_load_stays_logarithmic;
        Tutil.quick "incremental counters" tetris_incremental_counters;
        Tutil.quick "invalid args" tetris_invalid_args;
      ] );
    ( "core.drift_chain",
      [
        Tutil.quick "zero absorbing" drift_zero_absorbing;
        Tutil.quick "negative drift" drift_negative_drift;
        Tutil.slow "tau >= start" drift_tau_at_least_start;
        Tutil.slow "tail decays (Lemma 5)" drift_tail_decays;
        Tutil.quick "bound function" drift_bound_function;
      ] );
    ( "core.coupling",
      [
        Tutil.slow "domination (Lemma 3)" coupling_domination_from_sparse_start;
        Tutil.quick "counters" coupling_counters_consistent;
        Tutil.quick "initial state" coupling_initial_state;
      ] );
    ( "core.metrics",
      [
        Tutil.quick "aggregation" metrics_aggregation;
        Tutil.quick "empty" metrics_empty;
      ] );
    ( "core.token_process",
      [
        Tutil.quick "queues/positions consistent" token_conservation_and_consistency;
        Tutil.quick "fifo round-robin (n=1)" token_fifo_single_bin_round_robin;
        Tutil.quick "lifo starvation (n=1)" token_lifo_single_bin_starvation;
        Tutil.quick "moves = nonempty bins" token_moves_per_round_equals_nonempty_bins;
        Tutil.slow "stays legitimate" token_matches_anonymous_process_law;
        Tutil.slow "cover tracking" token_cover_tracking;
        Tutil.quick "cover disabled raises" token_cover_disabled_raises;
        Tutil.quick "graph mode uses edges" token_graph_mode_respects_edges;
        Tutil.quick "adversary pile" token_adversary_pile;
        Tutil.quick "adversary reshuffle" token_adversary_reshuffle_conserves;
        Tutil.quick "adversary place invalid" token_adversary_place_invalid;
        Tutil.quick "graph size mismatch" token_graph_size_mismatch;
        Tutil.quick "delay histogram" token_delay_histogram_populated;
        prop_token_conservation;
      ] );
    ( "core.walks",
      [
        Tutil.quick "conservation on torus" walks_conserve_on_graphs;
        Tutil.slow "clique matches process law" walks_complete_matches_process_law;
        Tutil.slow "single-walk cover (coupon collector)" walks_single_cover_clique;
        Tutil.quick "cover expectation closed form" walks_cover_expectation_closed_form;
        Tutil.quick "size mismatch" walks_size_mismatch;
      ] );
    ( "core.adversary",
      [
        Tutil.quick "schedule" adversary_schedule;
        Tutil.quick "perturb conserves" adversary_perturb_conserves;
        Tutil.quick "rotate exact" adversary_rotate_exact;
        Tutil.slow "faults then recovery (§4.1)" adversary_run_with_faults_recovers;
      ] );
  ]
