open Rbb_stats

(* ------------------------------------------------------------------ *)
(* Welford                                                             *)
(* ------------------------------------------------------------------ *)

let welford_known_values () =
  let w = Welford.create () in
  List.iter (Welford.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Tutil.check_close "mean" 5. (Welford.mean w);
  (* Sample variance of this classic data set is 32/7. *)
  Tutil.check_close ~tol:1e-9 "variance" (32. /. 7.) (Welford.variance w);
  Tutil.check_close "min" 2. (Welford.min w);
  Tutil.check_close "max" 9. (Welford.max w);
  Alcotest.(check int) "count" 8 (Welford.count w)

let welford_empty_and_single () =
  let w = Welford.create () in
  Tutil.check_close "empty mean" 0. (Welford.mean w);
  Tutil.check_close "empty variance" 0. (Welford.variance w);
  Welford.add w 42.;
  Tutil.check_close "single mean" 42. (Welford.mean w);
  Tutil.check_close "single variance" 0. (Welford.variance w);
  Tutil.check_close "single stderr" 0. (Welford.std_error w)

let welford_merge_equals_concat () =
  let g = Tutil.rng () in
  let a = Welford.create () and b = Welford.create () and whole = Welford.create () in
  for i = 1 to 1000 do
    let x = Rbb_prng.Rng.float_unit g *. 10. in
    Welford.add whole x;
    if i <= 400 then Welford.add a x else Welford.add b x
  done;
  let merged = Welford.merge a b in
  Alcotest.(check int) "count" (Welford.count whole) (Welford.count merged);
  Tutil.check_close ~tol:1e-9 "mean" (Welford.mean whole) (Welford.mean merged);
  Tutil.check_close ~tol:1e-7 "variance" (Welford.variance whole) (Welford.variance merged);
  Tutil.check_close "min" (Welford.min whole) (Welford.min merged);
  Tutil.check_close "max" (Welford.max whole) (Welford.max merged)

let welford_merge_with_empty () =
  let a = Welford.create () in
  Welford.add a 1.;
  Welford.add a 3.;
  let e = Welford.create () in
  let m1 = Welford.merge a e and m2 = Welford.merge e a in
  Tutil.check_close "merge right empty" 2. (Welford.mean m1);
  Tutil.check_close "merge left empty" 2. (Welford.mean m2)

let welford_numerical_stability () =
  (* Large offset: naive sum-of-squares would lose the variance. *)
  let w = Welford.create () in
  List.iter (Welford.add w) [ 1e9 +. 4.; 1e9 +. 7.; 1e9 +. 13.; 1e9 +. 16. ];
  Tutil.check_close ~tol:1e-6 "variance at offset" 30. (Welford.variance w)

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let int_hist_basic () =
  let open Histogram.Int_hist in
  let h = create () in
  add h 3;
  add h 3;
  add h 0;
  add_many h 7 5;
  Alcotest.(check int) "count 3" 2 (count h 3);
  Alcotest.(check int) "count 0" 1 (count h 0);
  Alcotest.(check int) "count 7" 5 (count h 7);
  Alcotest.(check int) "count unseen" 0 (count h 5);
  Alcotest.(check int) "total" 8 (total h);
  Alcotest.(check int) "max value" 7 (max_value h);
  Tutil.check_close "mean" ((3. +. 3. +. 0. +. 35.) /. 8.) (mean h);
  Alcotest.(check (list (pair int int))) "to_list" [ (0, 1); (3, 2); (7, 5) ] (to_list h)

let int_hist_fraction_at_least () =
  let open Histogram.Int_hist in
  let h = create () in
  add_many h 1 6;
  add_many h 5 4;
  Tutil.check_close "P(X>=0)" 1. (fraction_at_least h 0);
  Tutil.check_close "P(X>=2)" 0.4 (fraction_at_least h 2);
  Tutil.check_close "P(X>=6)" 0. (fraction_at_least h 6)

let int_hist_growth_and_errors () =
  let open Histogram.Int_hist in
  let h = create ~initial_capacity:1 () in
  add h 1000;
  Alcotest.(check int) "grown" 1 (count h 1000);
  Tutil.check_raises_invalid "negative value" (fun () -> add h (-1));
  Tutil.check_raises_invalid "negative count" (fun () -> add_many h 1 (-2));
  Alcotest.(check int) "empty max" (-1) (max_value (create ()))

let float_hist_buckets () =
  let open Histogram.Float_hist in
  let h = create ~lo:0. ~hi:10. ~buckets:10 in
  List.iter (add h) [ 0.5; 1.5; 1.7; 9.99; -1.; 10.; 11. ];
  Alcotest.(check int) "bucket 0" 1 (bucket_count h 0);
  Alcotest.(check int) "bucket 1" 2 (bucket_count h 1);
  Alcotest.(check int) "bucket 9" 1 (bucket_count h 9);
  Alcotest.(check int) "underflow" 1 (underflow h);
  Alcotest.(check int) "overflow" 2 (overflow h);
  Alcotest.(check int) "total" 7 (total h);
  let lo, hi = bucket_bounds h 3 in
  Tutil.check_close "bounds lo" 3. lo;
  Tutil.check_close "bounds hi" 4. hi

let float_hist_quantile () =
  let open Histogram.Float_hist in
  let h = create ~lo:0. ~hi:1. ~buckets:100 in
  let g = Tutil.rng () in
  for _ = 1 to 100_000 do
    add h (Rbb_prng.Rng.float_unit g)
  done;
  Tutil.check_rel ~tol:0.05 "median of uniform" 0.5 (quantile h 0.5);
  Tutil.check_rel ~tol:0.05 "q90 of uniform" 0.9 (quantile h 0.9);
  Tutil.check_raises_invalid "bad q" (fun () -> ignore (quantile h 1.5));
  Tutil.check_raises_invalid "empty" (fun () ->
      ignore (quantile (create ~lo:0. ~hi:1. ~buckets:2) 0.5))

let float_hist_invalid () =
  Tutil.check_raises_invalid "hi <= lo" (fun () ->
      ignore (Histogram.Float_hist.create ~lo:1. ~hi:1. ~buckets:4));
  Tutil.check_raises_invalid "no buckets" (fun () ->
      ignore (Histogram.Float_hist.create ~lo:0. ~hi:1. ~buckets:0))

(* ------------------------------------------------------------------ *)
(* Quantiles                                                           *)
(* ------------------------------------------------------------------ *)

let quantile_exact_values () =
  let s = [| 1.; 2.; 3.; 4. |] in
  Tutil.check_close "q0" 1. (Quantile.quantile s 0.);
  Tutil.check_close "q1" 4. (Quantile.quantile s 1.);
  Tutil.check_close "median" 2.5 (Quantile.median s);
  (* Type-7 at q=0.25 over 4 points: h = 0.75 -> 1 + 0.75*(2-1). *)
  Tutil.check_close "q25" 1.75 (Quantile.quantile s 0.25)

let quantile_single_and_unsorted () =
  Tutil.check_close "singleton" 5. (Quantile.quantile [| 5. |] 0.7);
  Tutil.check_close "unsorted median" 3. (Quantile.median [| 5.; 1.; 3. |])

let quantile_errors () =
  Tutil.check_raises_invalid "empty" (fun () -> ignore (Quantile.quantile [||] 0.5));
  Tutil.check_raises_invalid "q out of range" (fun () ->
      ignore (Quantile.quantile [| 1. |] 1.5))

let quantile_iqr () =
  let s = Array.init 101 float_of_int in
  Tutil.check_close "iqr of 0..100" 50. (Quantile.iqr s);
  match Quantile.quantiles s [ 0.25; 0.5; 0.75 ] with
  | [ a; b; c ] ->
      Tutil.check_close "q25" 25. a;
      Tutil.check_close "q50" 50. b;
      Tutil.check_close "q75" 75. c
  | _ -> Alcotest.fail "wrong arity"

let quantile_does_not_mutate () =
  let s = [| 3.; 1.; 2. |] in
  ignore (Quantile.median s);
  Alcotest.(check (array (float 0.))) "input unchanged" [| 3.; 1.; 2. |] s

let quantile_rejects_nan () =
  (* Regression: NaN samples used to silently poison the sort under
     polymorphic compare; every entry point now rejects them. *)
  let poisoned = [| 1.; Float.nan; 3. |] in
  Tutil.check_raises_invalid "quantile" (fun () ->
      ignore (Quantile.quantile poisoned 0.5));
  Tutil.check_raises_invalid "median" (fun () ->
      ignore (Quantile.median poisoned));
  Tutil.check_raises_invalid "quantiles" (fun () ->
      ignore (Quantile.quantiles poisoned [ 0.25; 0.75 ]));
  Tutil.check_raises_invalid "iqr" (fun () -> ignore (Quantile.iqr poisoned));
  Tutil.check_raises_invalid "nan only" (fun () ->
      ignore (Quantile.median [| Float.nan |]))

(* Float.compare agrees with the old polymorphic-compare path on finite
   data, so the fix cannot have changed any published number: the
   type-7 interpolation over a polymorphic-compare sort reproduces
   Quantile.quantile exactly. *)
let prop_quantile_agrees_with_old_path =
  Tutil.prop "quantile = old polymorphic-compare path (finite data)"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 60) (float_range (-1e6) 1e6))
        (float_bound_inclusive 1.))
    (fun (xs, q) ->
      let s = Array.of_list xs in
      let sorted = Array.copy s in
      Array.sort Stdlib.compare sorted;
      let n = Array.length sorted in
      let old_path =
        if n = 1 then sorted.(0)
        else begin
          let h = float_of_int (n - 1) *. q in
          let lo = int_of_float (Float.floor h) in
          let hi = Stdlib.min (lo + 1) (n - 1) in
          let frac = h -. float_of_int lo in
          sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
        end
      in
      Float.equal (Quantile.quantile s q) old_path)

(* ------------------------------------------------------------------ *)
(* Regression                                                          *)
(* ------------------------------------------------------------------ *)

let regression_exact_line () =
  let points = Array.init 10 (fun i -> (float_of_int i, (3. *. float_of_int i) +. 2.)) in
  let f = Regression.linear points in
  Tutil.check_close ~tol:1e-9 "slope" 3. f.slope;
  Tutil.check_close ~tol:1e-9 "intercept" 2. f.intercept;
  Tutil.check_close ~tol:1e-9 "r2" 1. f.r2

let regression_noise_reduces_r2 () =
  let g = Tutil.rng () in
  let points =
    Array.init 200 (fun i ->
        let x = float_of_int i in
        (x, x +. (100. *. (Rbb_prng.Rng.float_unit g -. 0.5))))
  in
  let f = Regression.linear points in
  Alcotest.(check bool) "r2 below 1" true (f.r2 < 0.999);
  Alcotest.(check bool) "r2 positive" true (f.r2 > 0.5);
  Tutil.check_rel ~tol:0.15 "slope near 1" 1. f.slope

let regression_log_law () =
  (* y = 5 ln x + 1 recovered by ~transform:log. *)
  let points =
    Array.init 20 (fun i ->
        let x = float_of_int (i + 2) in
        (x, (5. *. Float.log x) +. 1.))
  in
  let f = Regression.against ~transform:Float.log points in
  Tutil.check_close ~tol:1e-9 "slope" 5. f.slope;
  Tutil.check_close ~tol:1e-9 "intercept" 1. f.intercept

let regression_power_law_exponent () =
  (* y = 2 x^1.5: slope of the log-log fit is the exponent. *)
  let points =
    Array.init 20 (fun i ->
        let x = float_of_int (i + 1) in
        (x, 2. *. (x ** 1.5)))
  in
  let f = Regression.log_log_exponent points in
  Tutil.check_close ~tol:1e-9 "exponent" 1.5 f.slope

let regression_errors () =
  Tutil.check_raises_invalid "one point" (fun () ->
      ignore (Regression.linear [| (1., 1.) |]));
  Tutil.check_raises_invalid "degenerate x" (fun () ->
      ignore (Regression.linear [| (1., 1.); (1., 2.) |]));
  Tutil.check_raises_invalid "log-log with zero" (fun () ->
      ignore (Regression.log_log_exponent [| (0., 1.); (1., 2.) |]))

let regression_constant_y () =
  let f = Regression.linear [| (1., 7.); (2., 7.); (3., 7.) |] in
  Tutil.check_close "slope 0" 0. f.slope;
  Tutil.check_close "intercept 7" 7. f.intercept;
  Tutil.check_close "r2 of constant" 1. f.r2

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

let summary_basic () =
  let s = Summary.of_array [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check int) "n" 5 s.n;
  Tutil.check_close "mean" 3. s.mean;
  Tutil.check_close "median" 3. s.median;
  Tutil.check_close "min" 1. s.min;
  Tutil.check_close "max" 5. s.max;
  Alcotest.(check bool) "ci contains mean" true
    (s.ci95_low <= s.mean && s.mean <= s.ci95_high)

let summary_ci_width_shrinks () =
  let g = Tutil.rng () in
  let sample k = Array.init k (fun _ -> Rbb_prng.Rng.float_unit g) in
  let s_small = Summary.of_array (sample 10) in
  let s_big = Summary.of_array (sample 10_000) in
  Alcotest.(check bool) "wider CI with fewer samples" true
    (s_small.ci95_high -. s_small.ci95_low > s_big.ci95_high -. s_big.ci95_low)

let summary_single_sample () =
  let s = Summary.of_array [| 42. |] in
  Tutil.check_close "mean" 42. s.mean;
  Tutil.check_close "degenerate CI low" 42. s.ci95_low;
  Tutil.check_close "degenerate CI high" 42. s.ci95_high

let summary_t_table () =
  Tutil.check_close ~tol:1e-3 "df=1" 12.706 (Summary.t_critical_95 1);
  Tutil.check_close ~tol:1e-3 "df=10" 2.228 (Summary.t_critical_95 10);
  Tutil.check_close ~tol:1e-3 "df large" 1.96 (Summary.t_critical_95 1000);
  Tutil.check_raises_invalid "df=0" (fun () -> ignore (Summary.t_critical_95 0))

let summary_empty () =
  Tutil.check_raises_invalid "empty" (fun () -> ignore (Summary.of_array [||]))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_welford_matches_naive =
  Tutil.prop "welford mean/var match two-pass" ~count:100
    QCheck2.Gen.(list_size (int_range 2 50) (float_bound_inclusive 100.))
    (fun xs ->
      let a = Array.of_list xs in
      let w = Welford.create () in
      Array.iter (Welford.add w) a;
      let n = float_of_int (Array.length a) in
      let mean = Array.fold_left ( +. ) 0. a /. n in
      let var =
        Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. a /. (n -. 1.)
      in
      Float.abs (Welford.mean w -. mean) < 1e-6
      && Float.abs (Welford.variance w -. var) < 1e-6)

let prop_quantile_monotone =
  Tutil.prop "quantiles are monotone in q" ~count:100
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 100.))
    (fun xs ->
      let a = Array.of_list xs in
      let q1 = Quantile.quantile a 0.2
      and q2 = Quantile.quantile a 0.5
      and q3 = Quantile.quantile a 0.8 in
      q1 <= q2 && q2 <= q3)

let prop_summary_bounds =
  Tutil.prop "summary min <= median <= max" ~count:100
    QCheck2.Gen.(list_size (int_range 1 60) (float_bound_inclusive 1000.))
    (fun xs ->
      let s = Summary.of_list xs in
      s.min <= s.median && s.median <= s.max && s.min <= s.mean && s.mean <= s.max)

(* Exact-count histograms make merging lossless: the merge must be
   indistinguishable from a histogram fed the concatenated stream. *)
let prop_int_hist_merge =
  Tutil.prop "int merge = histogram of concatenation" ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 60) (int_range 0 40))
        (list_size (int_range 0 60) (int_range 0 40)))
    (fun (xs, ys) ->
      let open Histogram.Int_hist in
      let of_list l =
        let h = create () in
        List.iter (add h) l;
        h
      in
      let m = merge (of_list xs) (of_list ys)
      and whole = of_list (xs @ ys) in
      total m = total whole && to_list m = to_list whole)

let prop_float_hist_merge =
  Tutil.prop "float merge adds bucket-wise" ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 60) (float_range (-2.) 12.))
        (list_size (int_range 0 60) (float_range (-2.) 12.)))
    (fun (xs, ys) ->
      let open Histogram.Float_hist in
      let of_list l =
        let h = create ~lo:0. ~hi:10. ~buckets:16 in
        List.iter (add h) l;
        h
      in
      let ha = of_list xs and hb = of_list ys in
      let m = merge ha hb
      and whole = of_list (xs @ ys) in
      let buckets_agree = ref true in
      for i = 0 to 15 do
        if bucket_count m i <> bucket_count whole i then buckets_agree := false
      done;
      !buckets_agree
      && total m = total whole
      && underflow m = underflow whole
      && overflow m = overflow whole)

let float_hist_merge_geometry () =
  let open Histogram.Float_hist in
  let a = create ~lo:0. ~hi:10. ~buckets:16 in
  Tutil.check_raises_invalid "lo mismatch" (fun () ->
      ignore (merge a (create ~lo:1. ~hi:10. ~buckets:16)));
  Tutil.check_raises_invalid "hi mismatch" (fun () ->
      ignore (merge a (create ~lo:0. ~hi:20. ~buckets:16)));
  Tutil.check_raises_invalid "bucket-count mismatch" (fun () ->
      ignore (merge a (create ~lo:0. ~hi:10. ~buckets:8)))

(* merged_quantile is a streaming-friendly two-way merge; it must agree
   exactly with sorting the concatenation, for every interpolation
   point. *)
let prop_merged_quantile =
  Tutil.prop "merged_quantile = quantile of concatenation" ~count:100
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 50) (float_range (-100.) 100.))
        (list_size (int_range 0 50) (float_range (-100.) 100.))
        (float_bound_inclusive 1.))
    (fun (xs, ys, q) ->
      if xs = [] && ys = [] then true
      else begin
        let a = Array.of_list xs and b = Array.of_list ys in
        let whole = Array.append a b in
        List.for_all
          (fun q ->
            Float.equal (Quantile.merged_quantile a b q)
              (Quantile.quantile whole q))
          [ 0.; q; 0.5; 1. ]
      end)

(* ------------------------------------------------------------------ *)
(* Gof: goodness-of-fit numerics against textbook golden values        *)
(* ------------------------------------------------------------------ *)

let gof_log_gamma_golden () =
  (* ln Γ(5) = ln 4! and ln Γ(1/2) = ln √π are exact anchors; Γ(0.3)
     exercises the reflection branch. *)
  Tutil.check_close ~tol:1e-12 "lgamma(5)" (log 24.) (Gof.log_gamma 5.);
  Tutil.check_close ~tol:1e-12 "lgamma(0.5)"
    (0.5 *. log (4. *. atan 1.))
    (Gof.log_gamma 0.5);
  Tutil.check_close ~tol:1e-9 "lgamma(0.3)" 1.0957979948 (Gof.log_gamma 0.3);
  Tutil.check_close ~tol:1e-12 "lgamma(1)" 0. (Gof.log_gamma 1.);
  Tutil.check_close ~tol:1e-12 "lgamma(2)" 0. (Gof.log_gamma 2.)

let gof_chi2_golden () =
  (* Critical values from the standard chi-square table: the upper-tail
     probability at the 5% critical value is 0.05 by construction. *)
  List.iter
    (fun (x, df, expect, tol) ->
      Tutil.check_close ~tol
        (Printf.sprintf "p(%g, df=%d)" x df)
        expect
        (Gof.chi2_p_value ~df x))
    [
      (3.841459, 1, 0.05, 1e-5);
      (5.991465, 2, 0.05, 1e-5);
      (11.0705, 5, 0.05, 1e-4);
      (18.307, 10, 0.05, 1e-4);
    ];
  (* P(chi2_1 <= 1) = erf(1/sqrt 2) = 0.6826894921 (the one-sigma
     normal mass). *)
  Tutil.check_close ~tol:1e-8 "cdf(1, df=1)" 0.6826894921
    (Gof.chi2_cdf ~df:1 1.);
  Tutil.check_close ~tol:1e-12 "cdf(0)" 0. (Gof.chi2_cdf ~df:3 0.);
  Tutil.check_close ~tol:1e-9 "p at 0 is 1" 1. (Gof.chi2_p_value ~df:3 0.)

let gof_ks_q_golden () =
  (* Q_KS(1.358) = 0.05: the classical two-sided 5% critical value. *)
  Tutil.check_close ~tol:1e-4 "Q(1.358)" 0.05 (Gof.ks_q 1.358);
  Tutil.check_close ~tol:1e-4 "Q(1.224)" 0.1 (Gof.ks_q 1.224);
  Tutil.check_close ~tol:1e-12 "Q(0) = 1" 1. (Gof.ks_q 0.);
  Tutil.check_close ~tol:1e-12 "Q(inf) = 0" 0. (Gof.ks_q 50.)

let gof_chi2_statistic_and_test () =
  (* Hand-computed: observed [10; 20; 30], expected [20.; 20.; 20.]
     gives (100 + 0 + 100) / 20 = 10. *)
  Tutil.check_close ~tol:1e-12 "statistic" 10.
    (Gof.chi2_statistic ~observed:[| 10; 20; 30 |]
       ~expected:[| 20.; 20.; 20. |]);
  let stat, df, p =
    Gof.chi2_gof_test
      ~observed:[| 10; 20; 30 |]
      ~probabilities:[| 1. /. 3.; 1. /. 3.; 1. /. 3. |]
  in
  Tutil.check_close ~tol:1e-12 "test statistic" 10. stat;
  Alcotest.(check int) "df" 2 df;
  Tutil.check_close ~tol:1e-5 "p" 0.00673795 p;
  (* A perfect fit has statistic 0 and p = 1. *)
  let stat0, _, p0 =
    Gof.chi2_gof_test ~observed:[| 25; 25 |] ~probabilities:[| 0.5; 0.5 |]
  in
  Tutil.check_close ~tol:1e-12 "perfect statistic" 0. stat0;
  Tutil.check_close ~tol:1e-9 "perfect p" 1. p0

let gof_homogeneity () =
  (* Identical histograms are perfectly homogeneous. *)
  let _, _, p =
    Gof.chi2_homogeneity_test ~a:[| 30; 40; 30 |] ~b:[| 30; 40; 30 |]
  in
  Tutil.check_close ~tol:1e-9 "identical histograms" 1. p;
  (* Disjoint supports are maximally heterogeneous. *)
  let _, _, p' =
    Gof.chi2_homogeneity_test ~a:[| 100; 0 |] ~b:[| 0; 100 |]
  in
  Alcotest.(check bool) "disjoint supports rejected" true (p' < 1e-6);
  (* Jointly-empty cells are dropped, not treated as evidence. *)
  let _, df, _ =
    Gof.chi2_homogeneity_test ~a:[| 10; 0; 20 |] ~b:[| 12; 0; 18 |]
  in
  Alcotest.(check int) "joint zeros dropped from df" 1 df

let gof_ks_test_basic () =
  (* Identical samples: d = 0, p = 1. *)
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  let d, p = Gof.ks_test a (Array.copy a) in
  Tutil.check_close ~tol:1e-12 "identical d" 0. d;
  Tutil.check_close ~tol:1e-9 "identical p" 1. p;
  (* Disjoint samples: d = 1, p tiny. *)
  let b = Array.init 50 (fun i -> float_of_int i)
  and c = Array.init 50 (fun i -> 1000. +. float_of_int i) in
  let d', p' = Gof.ks_test b c in
  Tutil.check_close ~tol:1e-12 "disjoint d" 1. d';
  Alcotest.(check bool) "disjoint p tiny" true (p' < 1e-12);
  (* The statistic ignores input order. *)
  let shuffled = [| 3.; 1.; 5.; 2.; 4. |] in
  let d'', _ = Gof.ks_test shuffled a in
  Tutil.check_close ~tol:1e-12 "order-invariant" 0. d''

let prop_gof_chi2_cdf_monotone =
  Tutil.prop "chi2 cdf monotone in x, p monotone in df" ~count:100
    QCheck2.Gen.(triple (int_range 1 30) (float_range 0.01 50.) (float_range 0.01 10.))
    (fun (df, x, dx) ->
      Gof.chi2_cdf ~df (x +. dx) >= Gof.chi2_cdf ~df x -. 1e-12
      && Gof.chi2_p_value ~df:(df + 1) x >= Gof.chi2_p_value ~df x -. 1e-12)

let suite =
  [
    ( "stats.welford",
      [
        Tutil.quick "known values" welford_known_values;
        Tutil.quick "empty and single" welford_empty_and_single;
        Tutil.quick "merge = concat" welford_merge_equals_concat;
        Tutil.quick "merge with empty" welford_merge_with_empty;
        Tutil.quick "numerical stability" welford_numerical_stability;
        prop_welford_matches_naive;
      ] );
    ( "stats.histogram",
      [
        Tutil.quick "int basic" int_hist_basic;
        Tutil.quick "int fraction_at_least" int_hist_fraction_at_least;
        Tutil.quick "int growth/errors" int_hist_growth_and_errors;
        Tutil.quick "float buckets" float_hist_buckets;
        Tutil.slow "float quantile" float_hist_quantile;
        Tutil.quick "float invalid" float_hist_invalid;
        Tutil.quick "float merge geometry" float_hist_merge_geometry;
        prop_int_hist_merge;
        prop_float_hist_merge;
      ] );
    ( "stats.quantile",
      [
        Tutil.quick "exact values" quantile_exact_values;
        Tutil.quick "single/unsorted" quantile_single_and_unsorted;
        Tutil.quick "errors" quantile_errors;
        Tutil.quick "iqr" quantile_iqr;
        Tutil.quick "no mutation" quantile_does_not_mutate;
        Tutil.quick "rejects NaN" quantile_rejects_nan;
        prop_quantile_monotone;
        prop_quantile_agrees_with_old_path;
        prop_merged_quantile;
      ] );
    ( "stats.regression",
      [
        Tutil.quick "exact line" regression_exact_line;
        Tutil.quick "noisy line" regression_noise_reduces_r2;
        Tutil.quick "log law" regression_log_law;
        Tutil.quick "power-law exponent" regression_power_law_exponent;
        Tutil.quick "errors" regression_errors;
        Tutil.quick "constant y" regression_constant_y;
      ] );
    ( "stats.summary",
      [
        Tutil.quick "basic" summary_basic;
        Tutil.slow "CI width shrinks" summary_ci_width_shrinks;
        Tutil.quick "single sample" summary_single_sample;
        Tutil.quick "t table" summary_t_table;
        Tutil.quick "empty" summary_empty;
        prop_summary_bounds;
      ] );
    ( "stats.gof",
      [
        Tutil.quick "log-gamma golden" gof_log_gamma_golden;
        Tutil.quick "chi-square golden" gof_chi2_golden;
        Tutil.quick "KS tail golden" gof_ks_q_golden;
        Tutil.quick "chi-square statistic/test" gof_chi2_statistic_and_test;
        Tutil.quick "homogeneity" gof_homogeneity;
        Tutil.quick "KS basic" gof_ks_test_basic;
        prop_gof_chi2_cdf_monotone;
      ] );
  ]
