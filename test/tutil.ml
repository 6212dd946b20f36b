(* Shared helpers for the test suite. *)

let rng ?(seed = 0xC0FFEEL) () = Rbb_prng.Rng.create ~seed ()

(* Float comparison with absolute tolerance. *)
let check_close ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10g, got %.10g (tol %.2g)" name expected actual tol

(* Relative closeness for stochastic estimates. *)
let check_rel ?(tol = 0.05) name expected actual =
  if expected = 0. then check_close ~tol name expected actual
  else begin
    let rel = Float.abs ((actual -. expected) /. expected) in
    if rel > tol then
      Alcotest.failf "%s: expected ~%.6g, got %.6g (rel err %.3f > %.3f)" name
        expected actual rel tol
  end

let check_raises_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* Crude uniformity check: empirical frequency of each of [k] buckets
   within [slack] of 1/k.  With enough draws this catches gross bias
   without being flaky. *)
let check_uniform ?(slack = 0.15) name counts total =
  let k = Array.length counts in
  let expect = float_of_int total /. float_of_int k in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expect) /. expect in
      if dev > slack then
        Alcotest.failf "%s: bucket %d has count %d, expected ~%.1f (dev %.3f)"
          name i c expect dev)
    counts

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* Index of the first occurrence, or -1. *)
let find_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i =
    if i + nn > nh then -1
    else if String.sub haystack i nn = needle then i
    else at (i + 1)
  in
  at 0

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let prop name ?(count = 200) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* Rebuild an engine from a checkpoint through the engine table, with
   inert telemetry and tracing. *)
let restore kind variant snap =
  Rbb_sim.Engine.core
    ((Rbb_sim.Engine.entry kind variant).restore ~telemetry:Rbb_sim.Telemetry.noop
       ~tracer:Rbb_sim.Tracer.noop snap)

(* The parallel variant with [shards] scheduling shards over [domains]
   workers and no failpoints or supervisor. *)
let parallel ?(shards = 1) domains =
  Rbb_sim.Engine.Parallel
    {
      shards;
      domains;
      failpoints = Rbb_sim.Failpoint.noop;
      supervisor = Rbb_sim.Supervisor.noop;
    }
