open Rbb_prng

(* ------------------------------------------------------------------ *)
(* SplitMix64                                                          *)
(* ------------------------------------------------------------------ *)

let splitmix_known_vector () =
  (* Standard test vector: first outputs of splitmix64 seeded with 0. *)
  let g = Splitmix64.create ~seed:0L in
  Alcotest.(check int64) "first" 0xE220A8397B1DCDAFL (Splitmix64.next_u64 g);
  Alcotest.(check int64) "second" 0x6E789E6AA1B965F4L (Splitmix64.next_u64 g);
  Alcotest.(check int64) "third" 0x06C45D188009454FL (Splitmix64.next_u64 g)

let splitmix_determinism () =
  let a = Splitmix64.create ~seed:123L and b = Splitmix64.create ~seed:123L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix64.next_u64 a) (Splitmix64.next_u64 b)
  done

let splitmix_copy () =
  let a = Splitmix64.create ~seed:7L in
  ignore (Splitmix64.next_u64 a);
  let b = Splitmix64.copy a in
  Alcotest.(check int64) "copy continues identically" (Splitmix64.next_u64 a)
    (Splitmix64.next_u64 b)

let splitmix_mix_bijective_spotcheck () =
  (* mix is a bijection; at minimum distinct inputs we try give distinct
     outputs and mix 0 = 0 (fixed point of the xorshift-multiply). *)
  Alcotest.(check int64) "mix 0" 0L (Splitmix64.mix 0L);
  let seen = Hashtbl.create 64 in
  for i = 1 to 1000 do
    let v = Splitmix64.mix (Int64.of_int i) in
    Alcotest.(check bool) "no collision" false (Hashtbl.mem seen v);
    Hashtbl.replace seen v ()
  done

(* ------------------------------------------------------------------ *)
(* xoshiro256**                                                        *)
(* ------------------------------------------------------------------ *)

let xoshiro_determinism () =
  let a = Xoshiro256.create ~seed:42L and b = Xoshiro256.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Xoshiro256.next_u64 a) (Xoshiro256.next_u64 b)
  done

let xoshiro_seed_sensitivity () =
  let a = Xoshiro256.create ~seed:1L and b = Xoshiro256.create ~seed:2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if Xoshiro256.next_u64 a <> Xoshiro256.next_u64 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let xoshiro_jump_disjoint () =
  let a = Xoshiro256.create ~seed:42L in
  let b = Xoshiro256.copy a in
  Xoshiro256.jump b;
  (* After the jump the two streams should not coincide. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Xoshiro256.next_u64 a = Xoshiro256.next_u64 b then incr same
  done;
  Alcotest.(check int) "no coincidences" 0 !same

let xoshiro_jump_deterministic () =
  let a = Xoshiro256.create ~seed:9L and b = Xoshiro256.create ~seed:9L in
  Xoshiro256.jump a;
  Xoshiro256.jump b;
  for _ = 1 to 20 do
    Alcotest.(check int64) "jumped streams equal" (Xoshiro256.next_u64 a)
      (Xoshiro256.next_u64 b)
  done

(* ------------------------------------------------------------------ *)
(* PCG32                                                               *)
(* ------------------------------------------------------------------ *)

let pcg_reference_vector () =
  (* Reference output of pcg32 with initstate 42, initseq 54 (from the
     pcg-c-basic check program). *)
  let g = Pcg32.create_stream ~seed:42L ~stream:54L in
  let expected = [ 0xa15c02b7l; 0x7b47f409l; 0xba1d3330l; 0x83d2f293l ] in
  List.iter
    (fun e -> Alcotest.(check int32) "reference output" e (Pcg32.next_u32 g))
    expected

let pcg_determinism () =
  let a = Pcg32.create ~seed:5L and b = Pcg32.create ~seed:5L in
  for _ = 1 to 100 do
    Alcotest.(check int32) "same stream" (Pcg32.next_u32 a) (Pcg32.next_u32 b)
  done

let pcg_streams_differ () =
  let a = Pcg32.create_stream ~seed:5L ~stream:1L in
  let b = Pcg32.create_stream ~seed:5L ~stream:2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if Pcg32.next_u32 a <> Pcg32.next_u32 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

(* ------------------------------------------------------------------ *)
(* Rng facade                                                          *)
(* ------------------------------------------------------------------ *)

let rng_engines_independent_of_facade () =
  (* The facade with Xoshiro engine must reproduce the raw generator. *)
  let raw = Xoshiro256.create ~seed:77L in
  let facade = Rng.create ~engine:Rng.Xoshiro ~seed:77L () in
  for _ = 1 to 50 do
    Alcotest.(check int64) "facade = raw" (Xoshiro256.next_u64 raw) (Rng.next_u64 facade)
  done

let rng_copy_reproduces () =
  let a = Tutil.rng () in
  ignore (Rng.next_u64 a);
  let b = Rng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy tracks original" (Rng.next_u64 a) (Rng.next_u64 b)
  done

let rng_split_diverges () =
  let a = Tutil.rng () in
  let child = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_u64 a = Rng.next_u64 child then incr same
  done;
  Alcotest.(check int) "parent and child disjoint" 0 !same

let rng_int_below_bounds () =
  let g = Tutil.rng () in
  for _ = 1 to 10_000 do
    let v = Rng.int_below g 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let rng_int_below_one () =
  let g = Tutil.rng () in
  Alcotest.(check int) "bound 1 gives 0" 0 (Rng.int_below g 1)

let rng_int_below_invalid () =
  let g = Tutil.rng () in
  Tutil.check_raises_invalid "zero bound" (fun () -> Rng.int_below g 0);
  Tutil.check_raises_invalid "negative bound" (fun () -> Rng.int_below g (-3))

let rng_int_below_uniform () =
  let g = Tutil.rng () in
  let k = 10 in
  let counts = Array.make k 0 in
  let total = 100_000 in
  for _ = 1 to total do
    let v = Rng.int_below g k in
    counts.(v) <- counts.(v) + 1
  done;
  Tutil.check_uniform ~slack:0.05 "int_below uniform" counts total

let rng_int_below_nonpow2_unbiased () =
  (* 3 buckets exercises the rejection path (mask = 3 covers 0..3). *)
  let g = Tutil.rng () in
  let counts = Array.make 3 0 in
  let total = 90_000 in
  for _ = 1 to total do
    let v = Rng.int_below g 3 in
    counts.(v) <- counts.(v) + 1
  done;
  Tutil.check_uniform ~slack:0.05 "bound-3 uniform" counts total

let rng_int_in_range () =
  let g = Tutil.rng () in
  for _ = 1 to 1000 do
    let v = Rng.int_in_range g ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in [lo,hi]" true (v >= -5 && v <= 5)
  done;
  Alcotest.(check int) "degenerate range" 3 (Rng.int_in_range g ~lo:3 ~hi:3);
  Tutil.check_raises_invalid "hi < lo" (fun () -> Rng.int_in_range g ~lo:2 ~hi:1)

let rng_float_unit_range () =
  let g = Tutil.rng () in
  for _ = 1 to 10_000 do
    let x = Rng.float_unit g in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let rng_float_unit_mean () =
  let g = Tutil.rng () in
  let acc = ref 0. in
  let total = 200_000 in
  for _ = 1 to total do
    acc := !acc +. Rng.float_unit g
  done;
  Tutil.check_rel ~tol:0.01 "mean 1/2" 0.5 (!acc /. float_of_int total)

let rng_bool_balanced () =
  let g = Tutil.rng () in
  let heads = ref 0 in
  let total = 100_000 in
  for _ = 1 to total do
    if Rng.bool g then incr heads
  done;
  Tutil.check_rel ~tol:0.02 "fair coin" 0.5 (float_of_int !heads /. float_of_int total)

(* ------------------------------------------------------------------ *)
(* Samplers                                                            *)
(* ------------------------------------------------------------------ *)

let bernoulli_frequency () =
  let g = Tutil.rng () in
  let p = 0.3 in
  let hits = ref 0 in
  let total = 100_000 in
  for _ = 1 to total do
    if Sampler.bernoulli g ~p then incr hits
  done;
  Tutil.check_rel ~tol:0.03 "P(true)" p (float_of_int !hits /. float_of_int total)

let bernoulli_extremes () =
  let g = Tutil.rng () in
  Alcotest.(check bool) "p=0 never" false (Sampler.bernoulli g ~p:0.);
  Alcotest.(check bool) "p=1 always" true (Sampler.bernoulli g ~p:1.);
  Tutil.check_raises_invalid "p=2" (fun () -> Sampler.bernoulli g ~p:2.)

let binomial_support () =
  let g = Tutil.rng () in
  for _ = 1 to 2000 do
    let v = Sampler.binomial g ~n:20 ~p:0.4 in
    Alcotest.(check bool) "in [0,n]" true (v >= 0 && v <= 20)
  done

let binomial_moments_small () =
  let g = Tutil.rng () in
  let n = 20 and p = 0.3 in
  let w = Rbb_stats.Welford.create () in
  for _ = 1 to 50_000 do
    Rbb_stats.Welford.add w (float_of_int (Sampler.binomial g ~n ~p))
  done;
  Tutil.check_rel ~tol:0.02 "mean np" (float_of_int n *. p) (Rbb_stats.Welford.mean w);
  Tutil.check_rel ~tol:0.05 "var npq"
    (float_of_int n *. p *. (1. -. p))
    (Rbb_stats.Welford.variance w)

let binomial_moments_large_chunked () =
  (* n*p = 500 forces the exact chunked decomposition. *)
  let g = Tutil.rng () in
  let n = 1000 and p = 0.5 in
  let w = Rbb_stats.Welford.create () in
  for _ = 1 to 20_000 do
    Rbb_stats.Welford.add w (float_of_int (Sampler.binomial g ~n ~p))
  done;
  Tutil.check_rel ~tol:0.01 "mean np" 500. (Rbb_stats.Welford.mean w);
  Tutil.check_rel ~tol:0.05 "var npq" 250. (Rbb_stats.Welford.variance w)

let binomial_degenerate () =
  let g = Tutil.rng () in
  Alcotest.(check int) "p=0" 0 (Sampler.binomial g ~n:10 ~p:0.);
  Alcotest.(check int) "p=1" 10 (Sampler.binomial g ~n:10 ~p:1.);
  Alcotest.(check int) "n=0" 0 (Sampler.binomial g ~n:0 ~p:0.5);
  Tutil.check_raises_invalid "n<0" (fun () -> Sampler.binomial g ~n:(-1) ~p:0.5)

let geometric_mean () =
  let g = Tutil.rng () in
  let p = 0.2 in
  let w = Rbb_stats.Welford.create () in
  for _ = 1 to 100_000 do
    Rbb_stats.Welford.add w (float_of_int (Sampler.geometric g ~p))
  done;
  Tutil.check_rel ~tol:0.03 "mean (1-p)/p" ((1. -. p) /. p) (Rbb_stats.Welford.mean w)

let geometric_p_one () =
  let g = Tutil.rng () in
  for _ = 1 to 100 do
    Alcotest.(check int) "always 0" 0 (Sampler.geometric g ~p:1.)
  done;
  Tutil.check_raises_invalid "p=0" (fun () -> Sampler.geometric g ~p:0.)

let poisson_mean_small () =
  let g = Tutil.rng () in
  let w = Rbb_stats.Welford.create () in
  for _ = 1 to 50_000 do
    Rbb_stats.Welford.add w (float_of_int (Sampler.poisson g ~lambda:3.5))
  done;
  Tutil.check_rel ~tol:0.02 "mean" 3.5 (Rbb_stats.Welford.mean w);
  Tutil.check_rel ~tol:0.05 "variance" 3.5 (Rbb_stats.Welford.variance w)

let poisson_mean_large_split () =
  (* lambda = 120 exercises the recursive split. *)
  let g = Tutil.rng () in
  let w = Rbb_stats.Welford.create () in
  for _ = 1 to 20_000 do
    Rbb_stats.Welford.add w (float_of_int (Sampler.poisson g ~lambda:120.))
  done;
  Tutil.check_rel ~tol:0.01 "mean" 120. (Rbb_stats.Welford.mean w);
  Tutil.check_rel ~tol:0.05 "variance" 120. (Rbb_stats.Welford.variance w)

let exponential_mean () =
  let g = Tutil.rng () in
  let w = Rbb_stats.Welford.create () in
  for _ = 1 to 100_000 do
    Rbb_stats.Welford.add w (Sampler.exponential g ~rate:2.)
  done;
  Tutil.check_rel ~tol:0.02 "mean 1/rate" 0.5 (Rbb_stats.Welford.mean w);
  Tutil.check_raises_invalid "rate 0" (fun () -> Sampler.exponential g ~rate:0.)

let gaussian_moments () =
  let g = Tutil.rng () in
  let w = Rbb_stats.Welford.create () in
  for _ = 1 to 100_000 do
    Rbb_stats.Welford.add w (Sampler.gaussian g ~mu:3. ~sigma:2.)
  done;
  Tutil.check_rel ~tol:0.02 "mean" 3. (Rbb_stats.Welford.mean w);
  Tutil.check_rel ~tol:0.03 "stddev" 2. (Rbb_stats.Welford.stddev w)

let permutation_is_permutation () =
  let g = Tutil.rng () in
  for _ = 1 to 50 do
    let p = Sampler.permutation g 37 in
    let sorted = Array.copy p in
    Array.sort compare sorted;
    Alcotest.(check (array int)) "sorted = identity" (Array.init 37 Fun.id) sorted
  done

let shuffle_uniform_positions () =
  (* Element 0 of a 5-array should land in each slot ~1/5 of the time. *)
  let g = Tutil.rng () in
  let counts = Array.make 5 0 in
  let total = 50_000 in
  for _ = 1 to total do
    let a = Array.init 5 Fun.id in
    Sampler.shuffle_in_place g a;
    let pos = ref (-1) in
    Array.iteri (fun i v -> if v = 0 then pos := i) a;
    counts.(!pos) <- counts.(!pos) + 1
  done;
  Tutil.check_uniform ~slack:0.06 "position of element 0" counts total

let sample_distinct_properties () =
  let g = Tutil.rng () in
  for _ = 1 to 200 do
    let s = Sampler.sample_distinct g ~k:10 ~n:50 in
    Alcotest.(check int) "size" 10 (Array.length s);
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun v ->
        Alcotest.(check bool) "range" true (v >= 0 && v < 50);
        Alcotest.(check bool) "distinct" false (Hashtbl.mem tbl v);
        Hashtbl.replace tbl v ())
      s
  done;
  Alcotest.(check int) "k=0" 0 (Array.length (Sampler.sample_distinct g ~k:0 ~n:5));
  let all = Sampler.sample_distinct g ~k:5 ~n:5 in
  let sorted = Array.copy all in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "k=n is everything" (Array.init 5 Fun.id) sorted;
  Tutil.check_raises_invalid "k>n" (fun () -> Sampler.sample_distinct g ~k:6 ~n:5)

(* ------------------------------------------------------------------ *)
(* Binomial_table                                                      *)
(* ------------------------------------------------------------------ *)

let table_pmf_sums_to_one () =
  List.iter
    (fun (n, p) ->
      let tbl = Sampler.Binomial_table.create ~n ~p in
      let acc = ref 0. in
      for k = 0 to n do
        let v = Sampler.Binomial_table.pmf tbl k in
        Alcotest.(check bool) "pmf >= 0" true (v >= 0.);
        acc := !acc +. v
      done;
      Tutil.check_close ~tol:1e-9 "pmf sums to 1" 1. !acc)
    [ (10, 0.5); (75, 0.01); (1000, 0.001); (5, 0.); (5, 1.) ]

let table_pmf_matches_exact_small () =
  (* Compare against directly computed C(4,k) p^k q^(n-k). *)
  let tbl = Sampler.Binomial_table.create ~n:4 ~p:0.3 in
  let choose = [| 1.; 4.; 6.; 4.; 1. |] in
  for k = 0 to 4 do
    let exact = choose.(k) *. (0.3 ** float_of_int k) *. (0.7 ** float_of_int (4 - k)) in
    Tutil.check_close ~tol:1e-12 (Printf.sprintf "pmf %d" k) exact
      (Sampler.Binomial_table.pmf tbl k)
  done

let table_draw_matches_pmf () =
  let g = Tutil.rng () in
  let n = 12 and p = 0.25 in
  let tbl = Sampler.Binomial_table.create ~n ~p in
  let counts = Array.make (n + 1) 0 in
  let total = 200_000 in
  for _ = 1 to total do
    let v = Sampler.Binomial_table.draw tbl g in
    counts.(v) <- counts.(v) + 1
  done;
  for k = 0 to n do
    let expected = Sampler.Binomial_table.pmf tbl k *. float_of_int total in
    if expected > 500. then
      Tutil.check_rel ~tol:0.1
        (Printf.sprintf "draw frequency k=%d" k)
        expected
        (float_of_int counts.(k))
  done

let table_tetris_mean () =
  (* The drift-chain distribution Bin(3n/4, 1/n) has mean 3/4. *)
  let tbl = Sampler.Binomial_table.create ~n:768 ~p:(1. /. 1024.) in
  Tutil.check_close ~tol:1e-12 "mean 3/4" 0.75 (Sampler.Binomial_table.mean tbl)

(* ------------------------------------------------------------------ *)
(* Alias method                                                        *)
(* ------------------------------------------------------------------ *)

let alias_matches_weights () =
  let g = Tutil.rng () in
  let weights = [| 1.; 2.; 3.; 4. |] in
  let a = Alias.create weights in
  Alcotest.(check int) "size" 4 (Alias.size a);
  let counts = Array.make 4 0 in
  let total = 200_000 in
  for _ = 1 to total do
    let i = Alias.draw a g in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      Tutil.check_rel ~tol:0.05
        (Printf.sprintf "category %d" i)
        (Alias.probability a i *. float_of_int total)
        (float_of_int c))
    counts

let alias_normalization () =
  let a = Alias.create [| 2.; 2. |] in
  Tutil.check_close "p0" 0.5 (Alias.probability a 0);
  Tutil.check_close "p1" 0.5 (Alias.probability a 1)

let alias_invalid_inputs () =
  Tutil.check_raises_invalid "empty" (fun () -> Alias.create [||]);
  Tutil.check_raises_invalid "negative" (fun () -> Alias.create [| 1.; -1. |]);
  Tutil.check_raises_invalid "zero sum" (fun () -> Alias.create [| 0.; 0. |]);
  Tutil.check_raises_invalid "nan" (fun () -> Alias.create [| Float.nan |])

let alias_degenerate_category () =
  let g = Tutil.rng () in
  let a = Alias.create [| 0.; 1.; 0. |] in
  for _ = 1 to 1000 do
    Alcotest.(check int) "always the only positive category" 1 (Alias.draw a g)
  done

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_int_below_in_range =
  Tutil.prop "int_below always in [0,n)" ~count:500
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 0 1_000_000))
    (fun (n, salt) ->
      let g = Rbb_prng.Rng.create ~seed:(Int64.of_int salt) () in
      let v = Rng.int_below g n in
      v >= 0 && v < n)

let prop_binomial_in_support =
  Tutil.prop "binomial in [0,n]" ~count:300
    QCheck2.Gen.(triple (int_range 0 2000) (float_bound_inclusive 1.) (int_range 0 1_000_000))
    (fun (n, p, salt) ->
      let g = Rbb_prng.Rng.create ~seed:(Int64.of_int salt) () in
      let v = Sampler.binomial g ~n ~p in
      v >= 0 && v <= n)

let prop_permutation_bijective =
  Tutil.prop "permutation is bijective" ~count:200
    QCheck2.Gen.(pair (int_range 1 200) (int_range 0 1_000_000))
    (fun (n, salt) ->
      let g = Rbb_prng.Rng.create ~seed:(Int64.of_int salt) () in
      let p = Sampler.permutation g n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      sorted = Array.init n Fun.id)

let prop_float_unit_in_range =
  Tutil.prop "float_unit in [0,1)" ~count:500
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun salt ->
      let g = Rbb_prng.Rng.create ~seed:(Int64.of_int salt) () in
      let x = Rng.float_unit g in
      x >= 0. && x < 1.)

(* ------------------------------------------------------------------ *)
(* fill_int62                                                          *)
(* ------------------------------------------------------------------ *)

(* The batched fill must be bit-compatible with the one-word-at-a-time
   definition (low 62 bits of successive next_u64) on every engine:
   Multinomial's stream discipline — and hence the counts engines'
   trajectories — depends on it. *)
let fill_matches_next_u64 engine () =
  let seed = 0xFEEDL in
  let a = Rng.create ~engine ~seed () and b = Rng.create ~engine ~seed () in
  let buf = Array.make 64 (-1) in
  Rng.fill_int62 a buf ~pos:3 ~len:57;
  for i = 0 to 2 do
    Alcotest.(check int) "prefix untouched" (-1) buf.(i)
  done;
  for i = 60 to 63 do
    Alcotest.(check int) "suffix untouched" (-1) buf.(i)
  done;
  for i = 3 to 59 do
    let expect = Int64.to_int (Rng.next_u64 b) land max_int in
    Alcotest.(check int) (Printf.sprintf "word %d" i) expect buf.(i)
  done;
  (* The generators are in the same state afterwards. *)
  Alcotest.(check int64) "state advanced identically" (Rng.next_u64 b)
    (Rng.next_u64 a)

let fill_edge_cases () =
  let g = Rng.create ~seed:1L () in
  let buf = Array.make 4 7 in
  Rng.fill_int62 g buf ~pos:2 ~len:0;
  Alcotest.(check (array int)) "len 0 is a no-op" [| 7; 7; 7; 7 |] buf;
  Tutil.check_raises_invalid "negative pos" (fun () ->
      Rng.fill_int62 g buf ~pos:(-1) ~len:1);
  Tutil.check_raises_invalid "negative len" (fun () ->
      Rng.fill_int62 g buf ~pos:0 ~len:(-1));
  Tutil.check_raises_invalid "overrun" (fun () ->
      Rng.fill_int62 g buf ~pos:2 ~len:3)

(* ------------------------------------------------------------------ *)
(* Known-answer vectors                                                *)
(* ------------------------------------------------------------------ *)

(* Every trajectory, checkpoint and golden depends on these exact
   outputs, so a change to a generator's state layout or to how the
   derived draws are computed must reproduce them bit for bit.  [seed0]
   and [seed42] are the family module's own first words; every other
   sequence comes from a fresh [Rng.create ~engine ~seed:42L ()] and is
   paired with the raw word that follows it, which pins how many words
   the sequence consumed (int_below rejects, 2^20 + 1 about half the
   time). *)
type kat = {
  engine : Rng.engine;
  seed0 : int64 array;
  seed42 : int64 array;
  split_child : int64 array;  (** first words of [Rng.split]'s child *)
  split_parent : int64;  (** the parent's next word after the split *)
  below_3 : int array * int64;
  below_1m : int array * int64;
  below_2p20p1 : int array * int64;
  bits30 : int array * int64;
  float_unit : float array * int64;
  bool : string * int64;  (** ['1'] for [true] *)
}

let kat_xoshiro =
  {
    engine = Rng.Xoshiro;
    seed0 =
      [|
        0x99EC5F36CB75F2B4L; 0xBF6E1F784956452AL; 0x1A5F849D4933E6E0L;
        0x6AA594F1262D2D2CL; 0xBBA5AD4A1F842E59L; 0xFFEF8375D9EBCACAL;
        0x6C160DEED2F54C98L; 0x8920AD648FC30A3FL
      |];
    seed42 =
      [|
        0x15780B2E0C2EC716L; 0x6104D9866D113A7EL; 0xAE17533239E499A1L;
        0xECB8AD4703B360A1L; 0xFDE6DC7FE2EC5E64L; 0xC50DA53101795238L;
        0xB82154855A65DDB2L; 0xD99A2743EBE60087L
      |];
    split_child =
      [|
        0x50086EF83CBF4F4AL; 0xBA285EC21347D703L; 0x5EA1247B4DC6452AL;
        0x03A5C66424702131L
      |];
    split_parent = 0x6104D9866D113A7EL;
    below_3 =
      ( [|
          1; 0; 0; 1; 2; 0; 1; 0
        |],
        0x4A69DB9873AF8965L );
    below_1m =
      ( [|
          766405; 282271; 599656; 841768;
          726937; 939150; 620396; 622625
        |],
        0xC2E96E726E97647EL );
    below_2p20p1 =
      ( [|
          766405; 282271; 841768; 383263;
          265820; 778841; 111021; 854480
        |],
        0xB60DEC3BF2D887CDL );
    bits30 =
      ( [|
          90047179; 406926945; 730191052; 992881489;
          1064941343; 826501452; 772298017; 912689616
        |],
        0xC2E96E726E97647EL );
    float_unit =
      ( [|
          0x1.5780b2e0c2ecp-4; 0x1.84136619b444ep-2;
          0x1.5c2ea66473c93p-1; 0x1.d9715a8e0766cp-1;
          0x1.fbcdb8ffc5d8bp-1; 0x1.8a1b4a6202f2ap-1;
          0x1.7042a90ab4cbbp-1; 0x1.b3344e87d7ccp-1
        |],
        0xC2E96E726E97647EL );
    bool = ("0011000101110010", 0x9DE4159EDA9CEF95L);
  }

let kat_pcg =
  {
    engine = Rng.Pcg;
    seed0 =
      [|
        0x0A65CE7D97A1773EL; 0xC03F123AF1654D25L; 0x85A078925A7EB74FL;
        0xEF042D07FBB59996L; 0x4F46EE50E20ADB34L; 0x7CA56144DBF3B4E7L;
        0x3BB21CFF81ED0B40L; 0x46A5E0E9068A8DF9L
      |];
    seed42 =
      [|
        0x713066EA3C7A0D56L; 0xF424216A25C89145L; 0x43E7EF3E90CFF60CL;
        0x5232059153DFBCB8L; 0x733EBE7C8B7F6978L; 0x45E4322D19844D78L;
        0x44F942F75F5D4741L; 0x739DCA1CABC02A14L
      |];
    split_child =
      [|
        0x21874EEFAEA5FFA8L; 0x268650B1E78AFAA6L; 0x3E3F2E2E7072CD2AL;
        0xC7945B4F688E5A35L
      |];
    split_parent = 0xF424216A25C89145L;
    below_3 =
      ( [|
          1; 1; 2; 2; 2; 0; 1; 1
        |],
        0x4D65EB204B72BF2AL );
    below_1m =
      ( [|
          951125; 140369; 261507; 519982;
          70494; 479696; 2693; 501469
        |],
        0x4D65EB204B72BF2AL );
    below_2p20p1 =
      ( [|
          70494; 501469; 856963; 915687;
          170709; 104963; 563541; 516746
        |],
        0x27DF1A67F198E360L );
    bits30 =
      ( [|
          474749370; 1024002138; 284818383; 344752484;
          483372959; 293145739; 289296573; 484930183
        |],
        0x99795A22D11E9B76L );
    float_unit =
      ( [|
          0x1.c4c19ba8f1e82p-2; 0x1.e84842d44b912p-1;
          0x1.0f9fbcfa433fcp-2; 0x1.48c816454f7eep-2;
          0x1.ccfaf9f22dfdap-2; 0x1.1790c8b466112p-2;
          0x1.13e50bdd7d75p-2; 0x1.ce772872af00ap-2
        |],
        0x99795A22D11E9B76L );
    bool = ("0100001000000111", 0x4CAD5E1FA0526A61L);
  }

let kat_splitmix =
  {
    engine = Rng.Splitmix;
    seed0 =
      [|
        0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL;
        0xF88BB8A8724C81ECL; 0x1B39896A51A8749BL; 0x53CB9F0C747EA2EAL;
        0x2C829ABE1F4532E1L; 0xC584133AC916AB3CL
      |];
    seed42 =
      [|
        0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L;
        0x581CE1FF0E4AE394L; 0x09BC585A244823F2L; 0xDE4431FA3C80DB06L;
        0x37E9671C45376D5DL; 0xCCF635EE9E9E2FA4L
      |];
    split_child =
      [|
        0xC5A57E8172F0A9D2L; 0x61B3E514F002FD8BL; 0xB4B2555DC7FCD0AAL;
        0x9A0499C8CFAE7A8DL
      |];
    split_parent = 0x28EFE333B266F103L;
    below_3 =
      ( [|
          1; 0; 0; 1; 0; 1; 1; 1
        |],
        0x9E54D738297F77AEL );
    below_1m =
      ( [|
          711589; 638016; 255956; 178405;
          133372; 14017; 908119; 494569
        |],
        0x5705B8770B3D7DD5L );
    below_2p20p1 =
      ( [|
          255956; 14017; 908119; 494569;
          1007477; 365615; 1020345; 662145
        |],
        0xB05ECA1A2972B860L );
    bits30 =
      ( [|
          796249225; 171702476; 299145685; 369571967;
          40834582; 932252798; 234510791; 859671931
        |],
        0x5705B8770B3D7DD5L );
    float_unit =
      ( [|
          0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3;
          0x1.1d499d5c4c3e6p-2; 0x1.607387fc392b8p-2;
          0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1;
          0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1
        |],
        0x5705B8770B3D7DD5L );
    bool = ("1100001010100100", 0x1A83D752F35EBA75L);
  }

let kat_xoshiro_jump0 =
  [|
    0x376215EDC846D62CL; 0x57C0611DE8350CA7L; 0xBC46A3515AFEE385L;
    0x06C27B341ACA7B26L
  |]

let raw_words engine ~seed k =
  match engine with
  | Rng.Xoshiro ->
      let g = Xoshiro256.create ~seed in
      Array.init k (fun _ -> Xoshiro256.next_u64 g)
  | Rng.Pcg ->
      let g = Pcg32.create ~seed in
      Array.init k (fun _ -> Pcg32.next_u64 g)
  | Rng.Splitmix ->
      let g = Splitmix64.create ~seed in
      Array.init k (fun _ -> Splitmix64.next_u64 g)

let kat_raw kat () =
  Alcotest.(check (array int64)) "seed 0" kat.seed0 (raw_words kat.engine ~seed:0L 8);
  Alcotest.(check (array int64)) "seed 42" kat.seed42
    (raw_words kat.engine ~seed:42L 8)

(* [draw] applied [Array.length expect] times to a fresh stream, then the
   next raw word. *)
let check_sequence kat name elt draw (expect, next) =
  let g = Rng.create ~engine:kat.engine ~seed:42L () in
  let got = Array.map (fun _ -> draw g) expect in
  Alcotest.(check (array elt)) name expect got;
  Alcotest.(check int64) (name ^ ": next word") next (Rng.next_u64 g)

let kat_derived kat () =
  let g = Rng.create ~engine:kat.engine ~seed:42L () in
  let child = Rng.split g in
  Alcotest.(check (array int64)) "split child" kat.split_child
    (Array.map (fun _ -> Rng.next_u64 child) kat.split_child);
  Alcotest.(check int64) "split parent" kat.split_parent (Rng.next_u64 g);
  let below n g = Rng.int_below g n in
  check_sequence kat "int_below 3" Alcotest.int (below 3) kat.below_3;
  check_sequence kat "int_below 10^6" Alcotest.int (below 1_000_000) kat.below_1m;
  check_sequence kat "int_below 2^20+1" Alcotest.int
    (below ((1 lsl 20) + 1))
    kat.below_2p20p1;
  check_sequence kat "bits30" Alcotest.int Rng.bits30 kat.bits30;
  check_sequence kat "float_unit" (Alcotest.float 0.) Rng.float_unit kat.float_unit;
  let bits, next = kat.bool in
  check_sequence kat "bool" Alcotest.char
    (fun g -> if Rng.bool g then '1' else '0')
    (Array.init (String.length bits) (String.get bits), next)

let kat_xoshiro_jump () =
  let g = Xoshiro256.create ~seed:0L in
  Xoshiro256.jump g;
  Alcotest.(check (array int64)) "seed 0, jumped" kat_xoshiro_jump0
    (Array.init 4 (fun _ -> Xoshiro256.next_u64 g))

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* The derived draws read each word unboxed, so 10^5 calls allocate
   nothing; the slack covers the boxed floats of the [Gc.minor_words]
   calls themselves. *)
let draws_allocate_nothing engine () =
  let g = Rng.create ~engine ~seed:3L () in
  let check name draw =
    let w0 = Gc.minor_words () in
    for _ = 1 to 100_000 do
      ignore (Sys.opaque_identity (draw g))
    done;
    let words = Gc.minor_words () -. w0 in
    if words > 16. then Alcotest.failf "%s: %.0f minor words" name words
  in
  check "int_below 3" (fun g -> Rng.int_below g 3);
  check "int_below 10^6" (fun g -> Rng.int_below g 1_000_000);
  check "int_below 2^20+1" (fun g -> Rng.int_below g ((1 lsl 20) + 1));
  check "bits30" Rng.bits30;
  check "bool" Rng.bool

(* ------------------------------------------------------------------ *)
(* Multinomial splitting                                               *)
(* ------------------------------------------------------------------ *)

let multinomial_conserves_and_repeats () =
  let draw seed ~count ~width =
    let pool = Multinomial.create (Rng.create ~seed ()) in
    Multinomial.split pool ~count ~width
  in
  List.iter
    (fun (count, width) ->
      let a = draw 11L ~count ~width in
      Alcotest.(check int) "width" width (Array.length a);
      Alcotest.(check int)
        (Printf.sprintf "sum %d over %d" count width)
        count
        (Array.fold_left ( + ) 0 a);
      Array.iter (fun c -> Alcotest.(check bool) "nonneg" true (c >= 0)) a;
      (* Same stream, same counts — the draw is a deterministic
         function of the generator. *)
      Alcotest.(check (array int)) "deterministic" a (draw 11L ~count ~width))
    [ (0, 7); (1, 1); (5, 3); (1000, 1); (10_000, 100); (100_000, 4096);
      (3, 1_000_000); (50_000, 12_345) ]

let multinomial_split_bins_offsets () =
  let pool = Multinomial.create (Rng.create ~seed:5L ()) in
  let into = Array.make 20 100 in
  Multinomial.split_bins pool ~count:5000 ~width:10 ~into ~off:5;
  (* Outside [5, 15) untouched; inside, the counts were added. *)
  for i = 0 to 4 do
    Alcotest.(check int) "before off" 100 into.(i)
  done;
  for i = 15 to 19 do
    Alcotest.(check int) "after range" 100 into.(i)
  done;
  let added = ref 0 in
  for i = 5 to 14 do
    added := !added + into.(i) - 100
  done;
  Alcotest.(check int) "added in place" 5000 !added;
  Tutil.check_raises_invalid "bad range" (fun () ->
      Multinomial.split_bins pool ~count:1 ~width:10 ~into ~off:15);
  Tutil.check_raises_invalid "negative count" (fun () ->
      Multinomial.split_bins pool ~count:(-1) ~width:10 ~into ~off:0)

let multinomial_split_blocks_marginals () =
  (* split_blocks must put each ball in block floor(bin / 2^block_bits)
     with the block-size probabilities; check the aggregate frequencies
     on an uneven last block (bins not a multiple of the block size). *)
  let bins = 2500 and block_bits = 10 in
  (* blocks of 1024: sizes 1024, 1024, 452 *)
  let pool = Multinomial.create (Rng.create ~seed:99L ()) in
  let into = Array.make 3 0 in
  let count = 60_000 in
  Multinomial.split_blocks pool ~count ~bins ~block_bits ~into;
  Alcotest.(check int) "conserved" count (Array.fold_left ( + ) 0 into);
  let expect size = float_of_int count *. float_of_int size /. float_of_int bins in
  Tutil.check_rel ~tol:0.05 "block 0" (expect 1024) (float_of_int into.(0));
  Tutil.check_rel ~tol:0.05 "block 1" (expect 1024) (float_of_int into.(1));
  Tutil.check_rel ~tol:0.08 "block 2" (expect 452) (float_of_int into.(2))

let multinomial_uniform_chi2 () =
  (* One large draw: per-bin counts of a uniform multinomial, tested
     against the uniform law with an exact-tail chi-square. *)
  let width = 64 and count = 64_000 in
  let pool = Multinomial.create (Rng.create ~seed:42L ()) in
  let counts = Multinomial.split pool ~count ~width in
  let probabilities = Array.make width (1. /. float_of_int width) in
  let _, _, p = Rbb_stats.Gof.chi2_gof_test ~observed:counts ~probabilities in
  if p < 0.01 then Alcotest.failf "uniformity rejected (p = %.5f)" p

let prop_multinomial_conserves =
  Tutil.prop "multinomial conserves balls" ~count:100
    QCheck2.Gen.(
      triple (int_range 0 50_000) (int_range 1 10_000) (int_range 0 1_000_000))
    (fun (count, width, salt) ->
      let pool = Multinomial.create (Rng.create ~seed:(Int64.of_int salt) ()) in
      let a = Multinomial.split pool ~count ~width in
      Array.fold_left ( + ) 0 a = count
      && Array.for_all (fun c -> c >= 0) a)

let prop_split_blocks_matches_bins =
  (* Summing a bin-granular split over blocks and drawing the
     block-granular split from the same stream must agree exactly:
     go_blocks only prunes the descent below block granularity, and
     the pruned subtrees consume no bits that the block draw keeps. *)
  Tutil.prop "split_blocks conserves balls" ~count:100
    QCheck2.Gen.(
      triple (int_range 0 20_000) (int_range 1 9_000) (int_range 0 1_000_000))
    (fun (count, bins, salt) ->
      let pool = Multinomial.create (Rng.create ~seed:(Int64.of_int salt) ()) in
      let block_bits = 10 in
      let nblocks = ((bins - 1) lsr block_bits) + 1 in
      let into = Array.make nblocks 0 in
      Multinomial.split_blocks pool ~count ~bins ~block_bits ~into;
      Array.fold_left ( + ) 0 into = count
      && Array.for_all (fun c -> c >= 0) into)

(* ------------------------------------------------------------------ *)
(* Sampler binomial edge cases                                         *)
(* ------------------------------------------------------------------ *)

(* Zero-draw edges: Bin(0, p), Bin(n, 0) and Bin(n, 1) are
   deterministic and must consume NO randomness — engines rely on
   degenerate draws not shifting their streams. *)
let binomial_zero_draw_edges () =
  List.iter
    (fun (n, p, expect) ->
      let g = Rng.create ~seed:77L () in
      let before = Rng.snapshot g in
      let v = Sampler.binomial g ~n ~p in
      Alcotest.(check int) (Printf.sprintf "Bin(%d, %g)" n p) expect v;
      let after = Rng.snapshot g in
      Alcotest.(check bool)
        (Printf.sprintf "Bin(%d, %g) consumed no randomness" n p)
        true
        (before = after))
    [ (0, 0.3, 0); (0, 0., 0); (0, 1., 0); (17, 0., 0); (17, 1., 17);
      (100_000, 0., 0); (100_000, 1., 100_000) ]

let binomial_subnormal_p () =
  (* A subnormal p once made the chunk size overflow int_of_float;
     the draw must terminate and stay in support (and is 0 with
     overwhelming probability). *)
  let g = Rng.create ~seed:3L () in
  List.iter
    (fun p ->
      let v = Sampler.binomial g ~n:1_000_000 ~p in
      Alcotest.(check bool) "in support" true (v >= 0 && v <= 1_000_000))
    [ 1e-308; 4e-320; Float.min_float; 1e-300 ]

let binomial_p_near_one_symmetry () =
  (* p > 1/2 draws n - Bin(n, 1-p); the mean and the exact pmf must
     reflect correctly near 1. *)
  let g = Tutil.rng () in
  let n = 40 and p = 0.98 in
  let trials = 60_000 in
  let counts = Array.make (n + 1) 0 in
  for _ = 1 to trials do
    let v = Sampler.binomial g ~n ~p in
    counts.(v) <- counts.(v) + 1
  done;
  let mean = ref 0. in
  Array.iteri (fun k c -> mean := !mean +. float_of_int (k * c)) counts;
  Tutil.check_rel ~tol:0.01 "mean n p" (float_of_int n *. p)
    (!mean /. float_of_int trials);
  (* Exact-tail chi-square against the Binomial_table pmf, pooling the
     low-probability left tail into one cell. *)
  let tbl = Sampler.Binomial_table.create ~n ~p in
  let cut = 33 in
  (* P(X < 33) ~ 2e-3: pool *)
  let observed = Array.make (n - cut + 2) 0 in
  let probabilities = Array.make (n - cut + 2) 0. in
  for k = 0 to n do
    let cell = if k < cut then 0 else k - cut + 1 in
    observed.(cell) <- observed.(cell) + counts.(k);
    probabilities.(cell) <- probabilities.(cell) +. Sampler.Binomial_table.pmf tbl k
  done;
  let _, _, pval = Rbb_stats.Gof.chi2_gof_test ~observed ~probabilities in
  if pval < 0.01 then
    Alcotest.failf "Bin(%d, %g) pmf rejected (p = %.5f)" n p pval

let suite =
  [
    ( "prng.splitmix64",
      [
        Tutil.quick "known vector" splitmix_known_vector;
        Tutil.quick "determinism" splitmix_determinism;
        Tutil.quick "copy" splitmix_copy;
        Tutil.quick "mix spot-checks" splitmix_mix_bijective_spotcheck;
      ] );
    ( "prng.xoshiro256",
      [
        Tutil.quick "determinism" xoshiro_determinism;
        Tutil.quick "seed sensitivity" xoshiro_seed_sensitivity;
        Tutil.quick "jump disjoint" xoshiro_jump_disjoint;
        Tutil.quick "jump deterministic" xoshiro_jump_deterministic;
      ] );
    ( "prng.known_answers",
      [
        Tutil.quick "xoshiro raw words" (kat_raw kat_xoshiro);
        Tutil.quick "xoshiro jump" kat_xoshiro_jump;
        Tutil.quick "xoshiro derived draws" (kat_derived kat_xoshiro);
        Tutil.quick "pcg raw words" (kat_raw kat_pcg);
        Tutil.quick "pcg derived draws" (kat_derived kat_pcg);
        Tutil.quick "splitmix raw words" (kat_raw kat_splitmix);
        Tutil.quick "splitmix derived draws" (kat_derived kat_splitmix);
      ] );
    ( "prng.allocation",
      [
        Tutil.quick "xoshiro draws allocate nothing"
          (draws_allocate_nothing Rng.Xoshiro);
        Tutil.quick "pcg draws allocate nothing" (draws_allocate_nothing Rng.Pcg);
        Tutil.quick "splitmix draws allocate nothing"
          (draws_allocate_nothing Rng.Splitmix);
      ] );
    ( "prng.pcg32",
      [
        Tutil.quick "reference vector" pcg_reference_vector;
        Tutil.quick "determinism" pcg_determinism;
        Tutil.quick "streams differ" pcg_streams_differ;
      ] );
    ( "prng.rng",
      [
        Tutil.quick "facade = raw engine" rng_engines_independent_of_facade;
        Tutil.quick "copy reproduces" rng_copy_reproduces;
        Tutil.quick "split diverges" rng_split_diverges;
        Tutil.quick "int_below bounds" rng_int_below_bounds;
        Tutil.quick "int_below 1" rng_int_below_one;
        Tutil.quick "int_below invalid" rng_int_below_invalid;
        Tutil.slow "int_below uniform" rng_int_below_uniform;
        Tutil.slow "int_below non-pow2 unbiased" rng_int_below_nonpow2_unbiased;
        Tutil.quick "int_in_range" rng_int_in_range;
        Tutil.quick "float_unit range" rng_float_unit_range;
        Tutil.slow "float_unit mean" rng_float_unit_mean;
        Tutil.slow "bool balanced" rng_bool_balanced;
        prop_int_below_in_range;
        prop_float_unit_in_range;
      ] );
    ( "prng.sampler",
      [
        Tutil.slow "bernoulli frequency" bernoulli_frequency;
        Tutil.quick "bernoulli extremes" bernoulli_extremes;
        Tutil.quick "binomial support" binomial_support;
        Tutil.slow "binomial moments (small mean)" binomial_moments_small;
        Tutil.slow "binomial moments (chunked)" binomial_moments_large_chunked;
        Tutil.quick "binomial degenerate" binomial_degenerate;
        Tutil.slow "geometric mean" geometric_mean;
        Tutil.quick "geometric p=1" geometric_p_one;
        Tutil.slow "poisson mean (inversion)" poisson_mean_small;
        Tutil.slow "poisson mean (split)" poisson_mean_large_split;
        Tutil.slow "exponential mean" exponential_mean;
        Tutil.slow "gaussian moments" gaussian_moments;
        Tutil.quick "permutation valid" permutation_is_permutation;
        Tutil.slow "shuffle uniform" shuffle_uniform_positions;
        Tutil.quick "sample_distinct" sample_distinct_properties;
        prop_binomial_in_support;
        prop_permutation_bijective;
      ] );
    ( "prng.binomial_table",
      [
        Tutil.quick "pmf sums to 1" table_pmf_sums_to_one;
        Tutil.quick "pmf matches closed form" table_pmf_matches_exact_small;
        Tutil.slow "draws match pmf" table_draw_matches_pmf;
        Tutil.quick "tetris mean 3/4" table_tetris_mean;
      ] );
    ( "prng.alias",
      [
        Tutil.slow "draws match weights" alias_matches_weights;
        Tutil.quick "normalization" alias_normalization;
        Tutil.quick "invalid inputs" alias_invalid_inputs;
        Tutil.quick "degenerate category" alias_degenerate_category;
      ] );
    ( "prng.fill_int62",
      [
        Tutil.quick "xoshiro matches next_u64"
          (fill_matches_next_u64 Rng.Xoshiro);
        Tutil.quick "pcg matches next_u64" (fill_matches_next_u64 Rng.Pcg);
        Tutil.quick "splitmix matches next_u64"
          (fill_matches_next_u64 Rng.Splitmix);
        Tutil.quick "edge cases" fill_edge_cases;
      ] );
    ( "prng.multinomial",
      [
        Tutil.quick "conserves and repeats" multinomial_conserves_and_repeats;
        Tutil.quick "split_bins offsets" multinomial_split_bins_offsets;
        Tutil.quick "split_blocks marginals" multinomial_split_blocks_marginals;
        Tutil.quick "uniform chi-square" multinomial_uniform_chi2;
        prop_multinomial_conserves;
        prop_split_blocks_matches_bins;
      ] );
    ( "prng.binomial_edges",
      [
        Tutil.quick "zero-draw edges consume nothing" binomial_zero_draw_edges;
        Tutil.quick "subnormal p terminates" binomial_subnormal_p;
        Tutil.slow "p near 1 symmetry" binomial_p_near_one_symmetry;
      ] );
  ]
