(* pile-16k: n = m = 2^14, all balls in bin 0; wall time until the
   first legitimate round (Theorem 1's quantity) on both sequential
   engines. *)

open Rbb_core

let n = 16_384
(* Set-up takes about a millisecond; many repetitions steady its median. *)
let setups = 101
let max_rounds = 50 * n
let pile () = Config.all_in_one ~n ~m:n ()

let setup ~seed k =
  let init = pile () in
  let p = Process.create ~rng:(Measure.rng ~seed (Printf.sprintf "pile/setup-balls/%d" k)) ~init () in
  let c =
    Counts_process.create
      ~rng:(Measure.rng ~seed (Printf.sprintf "pile/setup-counts/%d" k))
      ~init ()
  in
  Process.step p;
  Counts_process.step c

(* The pile sheds at most one ball per round, so no run can become
   legitimate in fewer than n - threshold rounds. *)
let gates name ~rounds cfg =
  let thr = Config.legitimacy_threshold n in
  match rounds with
  | None ->
      Record.gate (name ^ ".converged") false
        (Printf.sprintf "not legitimate after %d rounds" max_rounds)
  | Some r ->
      Record.gate (name ^ ".converged") (r >= n - thr && Config.is_legitimate cfg)
        (Printf.sprintf "legitimate after %d rounds; at least %d are needed" r
           (n - thr));
      Record.gate (name ^ ".conservation") (Config.balls cfg = n)
        (Printf.sprintf "%d balls, expected %d" (Config.balls cfg) n)

(* One convergence from the pile, recorded in the section of [traced]. *)
let converge ~traced ~span ~metric ~engine_name ~create ~run ~round ~config =
  Span.set_enabled traced;
  let e = create () in
  let dt, rounds = Measure.ms (fun () -> Span.run span (fun () -> run e)) in
  Record.sample ~traced metric (dt /. 1e3);
  Record.attempt (round e);
  gates engine_name ~rounds (config e);
  e

let converge_balls ~seed ~k ~traced =
  converge ~traced ~span:"process.run_until_legitimate" ~metric:"balls_converge_s"
    ~engine_name:"process"
    ~create:(fun () ->
      Process.create ~rng:(Measure.rng ~seed (Printf.sprintf "pile/balls/%d" k)) ~init:(pile ()) ())
    ~run:(Process.run_until_legitimate ~max_rounds)
    ~round:Process.round ~config:Process.config

let converge_counts ~seed ~k ~traced =
  converge ~traced ~span:"counts_process.run_until_legitimate" ~metric:"counts_converge_s"
    ~engine_name:"counts_process"
    ~create:(fun () ->
      Counts_process.create
        ~rng:(Measure.rng ~seed (Printf.sprintf "pile/counts/%d" k))
        ~init:(pile ()) ())
    ~run:(Counts_process.run_until_legitimate ~max_rounds)
    ~round:Counts_process.round ~config:Counts_process.config

(* The counts engine converges about four times faster than the balls
   engine, so each balls convergence is followed by [counts_per_balls]
   counts convergences: comparable time on each, and a median of several
   for the shorter one. *)
let counts_per_balls = 3

(* With [sections = [false; true]] (the traced run) every convergence is
   run untraced and then traced from the same seed, so the tracing
   overhead is measured on neighbouring runs of identical work. *)
let run ~seed ~seconds ~sections =
  List.iter (fun traced -> Record.begin_section ~traced) sections;
  let modes = Array.of_list sections in
  for k = 0 to setups - 1 do
    let traced = modes.(k mod Array.length modes) in
    Span.set_enabled traced;
    Gc.full_major ();
    let dt = Measure.time_ms (fun () -> Span.run "pile.setup" (fun () -> setup ~seed k)) in
    Record.sample ~traced "setup_s" (dt /. 1e3);
    Record.attempt 2
  done;
  (* At least one round of convergences; more while another fits in the
     time budget. *)
  let t0 = Measure.now_s () in
  let rec go k =
    let t_round = Measure.now_s () in
    let p = ref None and c = ref None in
    Array.iter (fun traced -> p := Some (converge_balls ~seed ~k ~traced)) modes;
    for j = 0 to counts_per_balls - 1 do
      Array.iter
        (fun traced -> c := Some (converge_counts ~seed ~k:((counts_per_balls * k) + j) ~traced))
        modes
    done;
    let now = Measure.now_s () in
    if now -. t0 +. (now -. t_round) <= seconds then go (k + 1)
    else (Option.get !p, Option.get !c)
  in
  let p, c = go 0 in
  List.iter (fun traced -> Record.sample ~traced "peak_rss_mb" (Measure.peak_rss_mb ())) sections;
  let timed = List.mem true sections in
  Span.set_enabled timed;
  Layers.replay_gates ~rounds:(if timed then 5 else 1) ~timed ~balls:p ~counts:c;
  (* The 2-domain engines, from the converged configuration. *)
  if timed then
    ignore
      (Layers.engine_probe ~seed ~init:(Counts_process.config c) ~balls_rounds:20
         ~counts_rounds:80)
