(* Engine-surface parity, as loops over the engine table
   (Rbb_sim.Engine): the four engines (Process, Sharded, Counts_process,
   Sharded_counts) expose the same observability and persistence
   surface and implement the same process law.

   - Telemetry counter keysets are pinned per engine, so a renamed or
     dropped counter breaks a test instead of silently breaking
     dashboards.
   - Tracer streams (observables, threshold events, convergence) are
     compared record-for-record within each law-sharing pair:
     Process/Sharded and Counts_process/Sharded_counts are bit-identical
     trajectories, so their event streams must agree exactly.
   - Checkpoints of both kinds survive save -> load -> save with
     byte-identical files; balls checkpoint bytes are unchanged by the
     counts extension (no "engine_kind" field); cross-kind restores
     raise instead of silently switching randomness laws; a checkpoint
     captured from either variant and restored into either variant
     continues byte-identically to an uninterrupted sequential run.
   - At n = m = 4 every engine's round-3 law of the whole configuration
     matches the exact Markov chain (Rbb_markov.Chain). *)

open Rbb_core
module Rng = Rbb_prng.Rng
module Jsonl = Rbb_sim.Jsonl
module Telemetry = Rbb_sim.Telemetry
module Tracer = Rbb_sim.Tracer
module Checkpoint = Rbb_sim.Checkpoint
module Table = Rbb_sim.Engine

let fake_clock () =
  let t = ref 0L in
  fun () ->
    t := Int64.add !t 1000L;
    !t

let rng seed = Rng.create ~seed ()

let temp_path suffix =
  let path = Filename.temp_file "rbb_engines" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The table's four entries; the parallel ones run two domains. *)
type row = {
  name : string;
  kind : Table.kind;
  variant : Table.variant;
  counter_prefix : string;  (* "<prefix>.rounds", "<prefix>.<phase>.blocks" *)
  phase : string;
}

let rows =
  [
    { name = "process"; kind = Balls; variant = Sequential;
      counter_prefix = "process"; phase = "launch" };
    { name = "sharded"; kind = Balls; variant = Tutil.parallel 2;
      counter_prefix = "sharded"; phase = "launch" };
    { name = "counts"; kind = Counts; variant = Sequential;
      counter_prefix = "counts"; phase = "release" };
    { name = "sharded counts"; kind = Counts; variant = Tutil.parallel 2;
      counter_prefix = "counts_sharded"; phase = "release" };
  ]

let row name = List.find (fun r -> r.name = name) rows
let variants kind = List.filter (fun r -> r.kind = kind) rows
let kind_name = function Table.Balls -> "balls" | Table.Counts -> "counts"

let create ?(telemetry = Telemetry.noop) ?(tracer = Tracer.noop) r ~seed ~init =
  (Table.entry r.kind r.variant).create ~telemetry ~tracer ~d_choices:1
    ~rng:(rng seed) ~init

let restore r snap =
  (Table.entry r.kind r.variant).restore ~telemetry:Telemetry.noop
    ~tracer:Tracer.noop snap

let run e ~rounds = Engine.run (Table.core e) ~rounds

(* ------------------------------------------------------------------ *)
(* Telemetry counter keysets                                           *)
(* ------------------------------------------------------------------ *)

let n = 2048
let rounds = 5

let test_counter_keys r () =
  let tel = Telemetry.create ~clock:(fake_clock ()) () in
  run (create ~telemetry:tel r ~seed:1L ~init:(Config.uniform ~n)) ~rounds;
  let p = r.counter_prefix in
  Alcotest.(check (list string))
    (r.name ^ " counters (fault-free run)")
    [ p ^ "." ^ r.phase ^ ".blocks"; p ^ ".rounds" ]
    (List.map fst (Telemetry.counters tel));
  Alcotest.(check int) "rounds counted" rounds (Telemetry.counter tel (p ^ ".rounds"));
  Alcotest.(check int) "latency sample per round" rounds
    (Telemetry.latency_count tel)

(* ------------------------------------------------------------------ *)
(* Tracer stream parity within law-sharing pairs                       *)
(* ------------------------------------------------------------------ *)

let lines_of buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")

let records_of_type buf ty =
  List.filter_map
    (fun l ->
      match Jsonl.parse l with
      | Some fields when Jsonl.find_string fields "type" = Some ty -> Some fields
      | _ -> None)
    (lines_of buf)

(* Project the trajectory-determined payload; timestamps and worker ids
   legitimately differ between sequential and sharded runs. *)
let stream buf =
  List.concat_map
    (fun ty ->
      List.map
        (fun f ->
          ( ty,
            Jsonl.find_int f "round",
            Jsonl.find_int f "max_load",
            Jsonl.find_int f "empty_bins" ))
        (records_of_type buf ty))
    [
      "observable"; "legitimacy_exit"; "legitimacy_enter"; "convergence";
      "quarter_violation";
    ]

(* Pile init with n balls in one bin: the run starts illegitimate and,
   since unit capacity drains the pile one ball per round, re-enters
   legitimacy just before round n, so exits/enters/convergence all
   appear within the traced window. *)
let traced_rounds = 100
let traced_n = 64

let trace_events r =
  let buf = Buffer.create 4096 in
  let tracer =
    Tracer.create ~clock:(fake_clock ()) ~ndjson:(`Buffer buf) ~n:traced_n ()
  in
  run
    (create ~tracer r ~seed:11L ~init:(Config.all_in_one ~n:traced_n ~m:traced_n ()))
    ~rounds:traced_rounds;
  Tracer.close tracer;
  stream buf

let test_tracer_parity kind () =
  match List.map trace_events (variants kind) with
  | [ seq; par ] ->
      Alcotest.(check bool)
        (kind_name kind ^ " stream has observables and threshold events")
        true
        (List.exists (fun (ty, _, _, _) -> ty = "observable") seq
        && List.exists (fun (ty, _, _, _) -> ty = "legitimacy_enter") seq);
      Alcotest.(check bool) "sequential and parallel streams identical" true
        (seq = par)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Checkpoint round trips                                              *)
(* ------------------------------------------------------------------ *)

let save_bytes e =
  let path = temp_path ".ckpt" in
  Checkpoint.save ~path (Table.capture e);
  read_file path

let load_file path =
  match Checkpoint.load ~path () with
  | Ok snap -> snap
  | Error e -> Alcotest.failf "load failed: %s" e

(* save -> load -> restore -> save is byte-identical, on every variant of
   the kind; returns the bytes. *)
let test_roundtrip_bytes kind () =
  List.map
    (fun r ->
      let e = create r ~seed:3L ~init:(Config.uniform ~n:1000) in
      run e ~rounds:7;
      let path = temp_path ".ckpt" in
      Checkpoint.save ~path (Table.capture e);
      let again = save_bytes (restore r (load_file path)) in
      Alcotest.(check bool)
        (r.name ^ ": save -> load -> save bytes identical")
        true
        (read_file path = again);
      again)
    (variants kind)

let test_checkpoint_roundtrip_balls () =
  (* The counts extension must not leak into balls files: their bytes
     predate it and stay byte-compatible. *)
  List.iter
    (fun bytes ->
      Alcotest.(check bool)
        "balls header carries no engine_kind" false
        (Tutil.contains_substring bytes "engine_kind"))
    (test_roundtrip_bytes Balls ())

let test_checkpoint_roundtrip_counts () =
  List.iter
    (fun bytes ->
      Alcotest.(check bool)
        "counts header carries engine_kind" true
        (Tutil.contains_substring bytes "\"engine_kind\":\"counts\""))
    (test_roundtrip_bytes Counts ())

let test_checkpoint_roundtrip_sharded_counts () =
  (* A counts checkpoint restored into Sharded_counts continues exactly
     like the sequential counts engine restored from the same file. *)
  let par = row "sharded counts" and seq = row "counts" in
  let e = create par ~seed:3L ~init:(Config.uniform ~n:1000) in
  run e ~rounds:7;
  let snap = Table.capture e in
  let a = restore seq snap and b = restore { par with variant = Tutil.parallel 3 } snap in
  run a ~rounds:9;
  run b ~rounds:9;
  Alcotest.(check bool)
    "resumed sequential and parallel counts agree" true
    (Config.equal (Engine.config (Table.core a)) (Engine.config (Table.core b)))

let test_checkpoint_cross_kind_errors () =
  let snap kind =
    let e = create (List.hd (variants kind)) ~seed:4L ~init:(Config.uniform ~n:256) in
    run e ~rounds:2;
    Table.capture e
  in
  let balls = snap Balls and counts = snap Counts in
  List.iter
    (fun r ->
      let other = match r.kind with Balls -> counts | Counts -> balls in
      Tutil.check_raises_invalid
        (Printf.sprintf "%s restore of a %s snapshot" r.name
           (kind_name other.Checkpoint.kind))
        (fun () -> ignore (restore r other)))
    rows

(* Capture from either variant after [k] rounds, restore into either
   variant through a real file, run [more] rounds: the final checkpoint
   is byte-identical to an uninterrupted sequential run's. *)
let test_checkpoint_restore_matrix () =
  let k = 13 and more = 20 and n = 5000 in
  let init = Config.all_in_one ~n ~m:n () in
  List.iter
    (fun kind ->
      let vs = variants kind in
      let golden =
        let e = create (List.hd vs) ~seed:21L ~init in
        run e ~rounds:(k + more);
        save_bytes e
      in
      List.iter
        (fun src ->
          let e = create src ~seed:21L ~init in
          run e ~rounds:k;
          let path = temp_path ".ckpt" in
          Checkpoint.save ~path (Table.capture e);
          List.iter
            (fun dst ->
              let resumed = restore dst (load_file path) in
              run resumed ~rounds:more;
              Alcotest.(check bool)
                (Printf.sprintf "%s -> %s resume equals uninterrupted" src.name
                   dst.name)
                true
                (save_bytes resumed = golden))
            vs)
        vs)
    [ Table.Balls; Table.Counts ]

let test_checkpoint_counts_resume_trajectory () =
  (* File-level resume is invisible: run 6 + (save/load) + 6 rounds
     equals an uninterrupted 12-round counts run. *)
  let path = temp_path ".ckpt" in
  let full = Counts_process.create ~rng:(rng 9L) ~init:(Config.uniform ~n:800) () in
  Counts_process.run full ~rounds:12;
  let part = Counts_process.create ~rng:(rng 9L) ~init:(Config.uniform ~n:800) () in
  Counts_process.run part ~rounds:6;
  Checkpoint.save ~path (Checkpoint.capture_counts part);
  let resumed = Table.core (restore (row "counts") (load_file path)) in
  Engine.run resumed ~rounds:6;
  Alcotest.(check bool)
    "resumed trajectory equals uninterrupted" true
    (Config.equal (Counts_process.config full) (Engine.config resumed));
  Alcotest.(check int) "round counter restored" 12 (Engine.round resumed)

(* ------------------------------------------------------------------ *)
(* Exact-chain oracle                                                  *)
(* ------------------------------------------------------------------ *)

(* The per-bin Bin(m, 1/n) gates of test_distributional.ml see only
   marginals, and arrivals are not negatively associated (Appendix B),
   so a joint-law bug could pass them.  Here the empirical round-t law
   of the whole configuration is chi-squared against the exact chain,
   from the pile at n = m = 4 (35 states), d = 1, capacity 1; the
   parallel entries run one domain (test_sharded gates multi-domain
   bit-identity).  Cells are pooled, smallest first, until every
   expected count is at least 5. *)
let exact_n = 4
let exact_rounds = 3
let exact_trials = 4000

let pooled_cells ~observed ~expected =
  let order =
    List.sort
      (fun i j -> compare expected.(i) expected.(j))
      (List.init (Array.length expected) Fun.id)
  in
  let cells, (o, e) =
    List.fold_left
      (fun (cells, (o, e)) i ->
        let o = o + observed.(i) and e = e +. expected.(i) in
        if e >= 5. then ((o, e) :: cells, (0, 0.)) else (cells, (o, e)))
      ([], (0, 0.))
      order
  in
  (* A remainder short of 5 joins the last (largest) cell. *)
  let cells =
    match cells with (o', e') :: rest -> (o + o', e +. e') :: rest | [] -> [ (o, e) ]
  in
  let total = List.fold_left (fun s (_, e) -> s +. e) 0. cells in
  ( Array.of_list (List.map fst cells),
    Array.of_list (List.map (fun (_, e) -> e /. total) cells) )

let test_exact_chain r () =
  let chain = Rbb_markov.Chain.create ~n:exact_n ~m:exact_n in
  let pile = Config.all_in_one ~n:exact_n ~m:exact_n () in
  let exact =
    Rbb_markov.Chain.distribution_at chain ~init:(Config.loads pile)
      ~rounds:exact_rounds
  in
  let observed = Array.make (Rbb_markov.Chain.num_states chain) 0 in
  let variant =
    match r.variant with Sequential -> Table.Sequential | Parallel _ -> Tutil.parallel 1
  in
  for i = 0 to exact_trials - 1 do
    let e = create { r with variant } ~seed:(Int64.of_int (0xC4A1 + i)) ~init:pile in
    run e ~rounds:exact_rounds;
    let s =
      Rbb_markov.Chain.state_index chain
        (Config.loads (Engine.config (Table.core e)))
    in
    if exact.(s) = 0. then
      Alcotest.failf "%s reached a configuration the chain cannot" r.name;
    observed.(s) <- observed.(s) + 1
  done;
  let observed, probabilities =
    pooled_cells ~observed
      ~expected:(Array.map (fun p -> p *. float_of_int exact_trials) exact)
  in
  let stat, df, p = Rbb_stats.Gof.chi2_gof_test ~observed ~probabilities in
  if p < 0.01 then
    Alcotest.failf "%s round-%d configuration law vs exact chain: chi2 = %.2f (df %d), p = %.5f"
      r.name exact_rounds stat df p

let suite =
  let per_row f = List.map (fun r -> Tutil.quick r.name (f r)) rows in
  [
    ("engines.telemetry_keys", per_row test_counter_keys);
    ( "engines.tracer_parity",
      [
        Tutil.quick "process vs sharded" (test_tracer_parity Balls);
        Tutil.quick "counts vs sharded counts" (test_tracer_parity Counts);
      ] );
    ( "engines.checkpoint",
      [
        Tutil.quick "balls byte round trip" test_checkpoint_roundtrip_balls;
        Tutil.quick "counts byte round trip" test_checkpoint_roundtrip_counts;
        Tutil.quick "sharded counts round trip"
          test_checkpoint_roundtrip_sharded_counts;
        Tutil.quick "cross-kind restores error" test_checkpoint_cross_kind_errors;
        Tutil.quick "counts file resume exact"
          test_checkpoint_counts_resume_trajectory;
        Tutil.quick "cross-variant restore matrix" test_checkpoint_restore_matrix;
      ] );
    ("engines.exact_chain", per_row test_exact_chain);
  ]
