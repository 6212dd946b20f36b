(* serve-mix: a forked `rbb serve` daemon (1 worker, default
   checkpoint_every) under a seeded job sequence, driven from one process
   over two connections: one submits, one is subscribed to events.

   Phase 1 is open-loop Poisson arrivals of small (balls) jobs at a fixed
   rate; each job is timed from its scheduled send time to its [done]
   event.  Phase 2 is closed-loop with [outstanding] jobs in flight, one
   in five of them large (counts); each large job is timed from its send
   to its [done] event. *)

open Rbb_serve
module Jsonl = Rbb_sim.Jsonl

let small_n = 128

(* Short enough that a small job's service (about 10 ms) stays far below
   the daemon's 50 ms event-delivery tick even when the host runs at half
   speed; with 2000 rounds it sat near the tick and p50 flipped between one
   and two ticks from run to run. *)
let small_rounds = 500
let large_n = 65536

(* One checkpoint (the default interval is 256 rounds) per large job. *)
let large_rounds = 300

(* Phase-2 jobs come in groups of five with one large job at a seeded
   position. *)
let group = 5

(* The phase-1 arrival rate is part of the workload's definition and is
   never derived at run time.  At 16 small jobs/s the daemon of the commit
   that introduced the benchmark ran at about 0.2 utilization on a 2-core
   x86-64 host.  Large jobs stay out of phase 1: mixed in, they blocked a
   third of the small jobs for hundreds of milliseconds, which put p50 on
   the edge between that tail and the one-tick mode, and the quantiles
   swung 2-3x from run to run as the host's speed drifted. *)
let rate_per_s = 16.0

(* Phase 1 takes this share of the budget, phase 2 the rest. *)
let phase1_share = 0.45
let phase1_min_jobs = 100
let workers = 1
let outstanding = workers + 1
let setups = 31
let checkpoint_every = (Daemon.default_config ~socket:"" ~state_dir:"").checkpoint_every

let spec ~large ~seed =
  let n, rounds, engine =
    if large then (large_n, large_rounds, Protocol.Counts)
    else (small_n, small_rounds, Protocol.Balls)
  in
  { Protocol.n; m = n; rounds; seed; init = "uniform"; engine; deadline_s = infinity }

let is_large (s : Protocol.job_spec) = s.engine = Protocol.Counts

let job_sequence ~mixed rng count =
  let large_at = ref 0 in
  Array.init count (fun i ->
      if i mod group = 0 then large_at := Rbb_prng.Rng.int_below rng group;
      spec ~large:(mixed && i mod group = !large_at)
        ~seed:(Rbb_prng.Rng.int_below rng (1 lsl 30)))

(* Daemon process -------------------------------------------------------- *)

type daemon = { pid : int; socket : string; state_dir : string }

let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~rbb ~dir =
  Measure.rm_rf dir;
  Measure.mkdir_p dir;
  let socket = Filename.concat dir "s.sock"
  and state_dir = Filename.concat dir "state" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process rbb
      [|
        rbb; "serve"; "--socket"; socket; "--state-dir"; state_dir; "--workers";
        string_of_int workers; "--queue-depth"; "256";
      |]
      Unix.stdin log log
  in
  Unix.close log;
  live := pid :: !live;
  { pid; socket; state_dir }

(* Connect and ping until the daemon first answers. *)
let connect d =
  let deadline = Measure.now_s () +. 20. in
  let rec go () =
    match
      let c = Client.connect ~retry_for:0. ~max_frame:(1 lsl 24) ~socket:d.socket () in
      match Client.ping c with
      | () -> Some c
      | exception Failure _ ->
          Client.close c;
          None
    with
    | Some c -> c
    | None | (exception Failure _) ->
        if Measure.now_s () > deadline then failwith "serve-mix: daemon did not answer";
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

let stop d c =
  Client.shutdown c;
  Client.close c;
  let deadline = Measure.now_s () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Measure.now_s () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid);
        Record.gate "daemon.shutdown" false "daemon did not exit after shutdown"
    | _, Unix.WEXITED 0 -> ()
    | _, _ -> Record.gate "daemon.shutdown" false "daemon exited abnormally"
  in
  wait ();
  live := List.filter (( <> ) d.pid) !live

(* Subscriber ------------------------------------------------------------- *)

type events = {
  mu : Mutex.t;
  cond : Condition.t;
  done_at : (string, float) Hashtbl.t;
  failed_ids : (string, string) Hashtbl.t;
  mutable finished : int;
  mutable closed : bool;
}

let subscribe d =
  let ev =
    {
      mu = Mutex.create ();
      cond = Condition.create ();
      done_at = Hashtbl.create 1024;
      failed_ids = Hashtbl.create 8;
      finished = 0;
      closed = false;
    }
  in
  let c = Client.connect ~socket:d.socket () in
  Client.subscribe c ();
  let finish f =
    Mutex.lock ev.mu;
    f ();
    Condition.broadcast ev.cond;
    Mutex.unlock ev.mu
  in
  let rec loop () =
    match Client.next_event c with
    | { Protocol.ev = "done"; id; _ } ->
        let t = Measure.now_s () in
        finish (fun () ->
            Hashtbl.replace ev.done_at id t;
            ev.finished <- ev.finished + 1);
        loop ()
    | { Protocol.ev = "failed"; id; detail; _ } ->
        finish (fun () ->
            Hashtbl.replace ev.failed_ids id detail;
            ev.finished <- ev.finished + 1);
        loop ()
    | _ -> loop ()
    | exception _ ->
        Client.close c;
        finish (fun () -> ev.closed <- true)
  in
  (ev, Domain.spawn loop)

(* Block until [ready ev] holds (or the subscription ended). *)
let await ev ready =
  Mutex.lock ev.mu;
  while not (ready ev || ev.closed) do
    Condition.wait ev.cond ev.mu
  done;
  let ok = ready ev in
  Mutex.unlock ev.mu;
  ok

(* Phases ------------------------------------------------------------------ *)

let stat_ms fields key =
  match Jsonl.find_float fields key with
  | Some s -> s *. 1e3
  | None -> nan

let submit c spec =
  let dt, r = Measure.ms (fun () -> Span.run "client.submit" (fun () -> Client.submit c spec)) in
  Record.sample "client.submit_rtt_us" (dt *. 1e3);
  match r with
  | `Accepted id -> Some id
  | `Rejected _ ->
      Record.fail 1;
      None

let phase1 ~c ~ev ~rng ~jobs =
  let count = Array.length jobs in
  let sched = Array.make count 0. and ids = Array.make count None in
  let base = ev.finished in
  let t = ref (Measure.now_s ()) in
  for i = 0 to count - 1 do
    (* Exponential inter-arrival times: a Poisson stream at rate_per_s. *)
    t := !t -. (log (1. -. Rbb_prng.Rng.float_unit rng) /. rate_per_s);
    sched.(i) <- !t;
    let wait = !t -. Measure.now_s () in
    if wait > 0. then Unix.sleepf wait;
    Record.sample "loadgen.lag_ms" ((Measure.now_s () -. !t) *. 1e3);
    ids.(i) <- submit c jobs.(i)
  done;
  let accepted = Array.fold_left (fun n id -> if id = None then n else n + 1) 0 ids in
  ignore (await ev (fun ev -> ev.finished - base >= accepted));
  Mutex.lock ev.mu;
  Array.iteri
    (fun i id ->
      match id with
      | None -> () (* rejected: already counted as failed *)
      | Some id -> (
          match Hashtbl.find_opt ev.done_at id with
          | Some t_done -> Record.sample "sojourn_ms" ((t_done -. sched.(i)) *. 1e3)
          | None -> Record.fail 1))
    ids;
  Mutex.unlock ev.mu;
  Record.attempt count;
  ids

let phase2 ~c ~ev ~jobs ~seconds =
  let base = ev.finished in
  let t0 = Measure.now_s () in
  let ids = ref [] and accepted = ref 0 and k = ref 0 in
  (* Stop submitting only at a group boundary, so every window holds the
     same share of large jobs. *)
  while (Measure.now_s () -. t0 < seconds || !k mod group <> 0) && !k < Array.length jobs do
    ignore (await ev (fun ev -> !accepted - (ev.finished - base) < outstanding));
    let sent = Measure.now_s () in
    (match submit c jobs.(!k) with
    | Some id ->
        ids := (id, jobs.(!k), sent) :: !ids;
        incr accepted
    | None -> ());
    incr k
  done;
  let accepted = !accepted in
  ignore (await ev (fun ev -> ev.finished - base >= accepted));
  Mutex.lock ev.mu;
  List.iter
    (fun (id, spec, sent) ->
      match Hashtbl.find_opt ev.done_at id with
      | Some t -> if is_large spec then Record.sample "counts_sojourn_ms" ((t -. sent) *. 1e3)
      | None -> Record.fail 1)
    !ids;
  Mutex.unlock ev.mu;
  Record.attempt !k;
  List.map (fun (id, spec, _) -> (id, spec)) !ids

(* Daemon-side statistics beside the client timings, plus the RTTs of the
   control requests. *)
let daemon_stats c =
  let dt, fields = Measure.ms (fun () -> Span.run "client.stats" (fun () -> Client.stats c)) in
  Record.sample "client.stats_rtt_ms" dt;
  Record.sample "admission.wait_p50_ms" (stat_ms fields "wait_p50_s");
  Record.sample "daemon.service_p50_ms" (stat_ms fields "service_p50_s");
  Record.sample "daemon.sojourn_p50_ms" (stat_ms fields "sojourn_p50_s");
  let dt, body = Measure.ms (fun () -> Span.run "client.metrics" (fun () -> Client.metrics c)) in
  Record.sample "client.metrics_rtt_ms" dt;
  (* Stats carries p50 and p99 only; p95 comes from the same window's
     wait histogram in the Metrics exposition. *)
  Record.sample "admission.wait_p95_ms"
    (match
       Rbb_obs.Prometheus.scraped_quantile ~labels:[ ("outcome", "ok") ] body
         "rbb_job_wait_seconds" 0.95
     with
    | Some s -> s *. 1e3
    | None -> nan);
  for _ = 1 to 20 do
    let dt = Measure.time_ms (fun () -> Span.run "client.ping" (fun () -> Client.ping c)) in
    Record.sample "client.ping_rtt_us" (dt *. 1e3)
  done

let bare_run ~dir ~id spec =
  let state_dir = Filename.concat dir id in
  Measure.rm_rf state_dir;
  Measure.mkdir_p state_dir;
  Job.result_body (Job.run ~state_dir ~checkpoint_every ~id spec)

(* A seeded sample of result documents (3 small, 1 large) must be byte
   identical to a bare Job.run of the same spec in a fresh state dir. *)
let result_gates ~c ~dir ~rng ~jobs =
  let pick large =
    match List.filter (fun (_, spec) -> is_large spec = large) jobs with
    | [] -> []
    | l -> [ List.nth l (Rbb_prng.Rng.int_below rng (List.length l)) ]
  in
  let sample = List.concat [ pick false; pick false; pick false; pick true ] in
  List.iter
    (fun (id, spec) ->
      let served =
        match Client.request c (Protocol.Result id) with
        | Protocol.Job_result { body; _ } -> Some body
        | _ -> None
      in
      let bare = bare_run ~dir ~id spec in
      Record.gate ("serve.result." ^ id) (served = Some bare)
        "served result differs from a bare Job.run of the same spec")
    sample

(* One job of each shape, then a fresh statistics window. *)
let warm_up c ev =
  List.iter
    (fun large ->
      match Client.submit c (spec ~large ~seed:large_n) with
      | `Accepted id ->
          ignore (await ev (fun ev -> Hashtbl.mem ev.done_at id || Hashtbl.mem ev.failed_ids id))
      | `Rejected _ -> Record.gate "serve.warmup" false "warm-up job rejected")
    [ false; true ];
  Client.reset_stats c

let no_failures_gate c ev =
  let fields = Client.stats c in
  let count key = Option.value ~default:(-1) (Jsonl.find_int fields key) in
  Record.gate "serve.no_failures"
    (count "failed" = 0 && count "rejected" = 0 && Hashtbl.length ev.failed_ids = 0)
    (Printf.sprintf "daemon reports %d failed, %d rejected jobs" (count "failed")
       (count "rejected"))

let section ~rbb ~work ~seed ~seconds =
  let t_section = Measure.now_s () in
  let dir k = Filename.concat work (Printf.sprintf "serve-%d" k) in
  (* Set-up: fork until the first successful ping, several times. *)
  let daemon = ref None in
  for k = 1 to setups do
    Option.iter (fun (d, c) -> stop d c) !daemon;
    let t0 = Measure.now_s () in
    let d = spawn ~rbb ~dir:(dir k) in
    let c = Span.run "serve.setup" (fun () -> connect d) in
    Record.sample "setup_s" (Measure.now_s () -. t0);
    daemon := Some (d, c)
  done;
  let d, c = Option.get !daemon in
  let ev, subscriber = subscribe d in
  let rng = Measure.rng ~seed "serve/schedule" in
  let n1 = max phase1_min_jobs (int_of_float (rate_per_s *. phase1_share *. seconds)) in
  let jobs1 = job_sequence ~mixed:false (Measure.rng ~seed "serve/jobs-1") n1 in
  let jobs2 = job_sequence ~mixed:true (Measure.rng ~seed "serve/jobs-2") 5000 in
  warm_up c ev;
  let ids = phase1 ~c ~ev ~rng ~jobs:jobs1 in
  daemon_stats c;
  let elapsed = Measure.now_s () -. t_section in
  let done2 = phase2 ~c ~ev ~jobs:jobs2 ~seconds:(Float.max 4. (seconds -. elapsed)) in
  no_failures_gate c ev;
  let done1 =
    List.filter_map
      (fun i -> Option.map (fun id -> (id, jobs1.(i))) ids.(i))
      (List.init (Array.length jobs1) Fun.id)
  in
  result_gates ~c ~dir:(Filename.concat work "bare") ~rng ~jobs:(done1 @ done2);
  Record.sample "peak_rss_mb" (Measure.peak_rss_mb ~pid:d.pid ());
  stop d c;
  Domain.join subscriber

(* The daemon figures of the per-layer suite, on a workload that drives
   no daemon itself: a short phase 1 of [probe_jobs] small jobs, then the
   daemon's statistics beside the client timings. *)
let probe_jobs = 48

let probe ~rbb ~work ~seed =
  let d = spawn ~rbb ~dir:(Filename.concat work "serve-probe") in
  let c = Span.run "serve.setup" (fun () -> connect d) in
  let ev, subscriber = subscribe d in
  warm_up c ev;
  let jobs = job_sequence ~mixed:false (Measure.rng ~seed "serve/probe-jobs") probe_jobs in
  ignore (phase1 ~c ~ev ~rng:(Measure.rng ~seed "serve/probe-schedule") ~jobs);
  daemon_stats c;
  no_failures_gate c ev;
  stop d c;
  Domain.join subscriber

(* Per-layer figures of the job path: bare Job.run and the bare engine
   for each shape, and the checkpoint save of each shape's snapshot. *)
let job_layers ~work =
  let dir = Filename.concat work "job-layers" in
  let shapes = [ ("small", false, 10); ("large", true, 3) ] in
  List.iter
    (fun (shape, large, reps) ->
      for k = 1 to reps do
        let spec = spec ~large ~seed:(1000 + k) in
        let id = Printf.sprintf "job-%s-%d" shape k in
        let dt = Measure.time_ms (fun () -> Span.run "job.run" (fun () -> bare_run ~dir ~id spec)) in
        Record.layer_sample ("job.run_ms." ^ shape) dt;
        (* The engine as Job.run drives it: one probed round at a time. *)
        let compute () =
          let tel = Rbb_sim.Telemetry.create () in
          let probe = Rbb_sim.Telemetry.probe tel in
          let rng = Rbb_prng.Rng.create ~seed:(Int64.of_int spec.seed) () in
          let init = Rbb_core.Config.uniform ~n:spec.n in
          if large then begin
            let p = Rbb_core.Counts_process.create ~rng ~init () in
            for _ = 1 to spec.rounds do
              Rbb_core.Counts_process.run ~probe p ~rounds:1
            done;
            Rbb_sim.Checkpoint.capture_counts ~telemetry:tel p
          end
          else begin
            let p = Rbb_core.Process.create ~rng ~init () in
            for _ = 1 to spec.rounds do
              Rbb_core.Process.run ~probe p ~rounds:1
            done;
            Rbb_sim.Checkpoint.capture_process ~telemetry:tel p
          end
        in
        let dt, snap = Measure.ms (fun () -> Span.run "engine.compute" compute) in
        Record.layer_sample ("engine.compute_ms." ^ shape) dt;
        let path = Filename.concat dir (id ^ ".ckpt") in
        Record.layer_sample ("job.checkpoint_save_ms." ^ shape)
          (Measure.time_ms (fun () ->
               Span.run "checkpoint.save" (fun () -> Rbb_sim.Checkpoint.save ~path snap)))
      done;
      Record.fact
        ("job.checkpoints." ^ shape)
        (float_of_int ((spec ~large ~seed:0).rounds - 1) /. float_of_int checkpoint_every
        |> Float.floor))
    shapes

(* The traced run gives each section half the budget, then times the
   engines of the large job shape and replays their kernels. *)
let run ~rbb ~work ~seed ~seconds ~sections =
  let seconds = seconds /. float_of_int (List.length sections) in
  List.iter
    (fun traced ->
      Record.begin_section ~traced;
      Span.set_enabled traced;
      section ~rbb ~work ~seed ~seconds)
    sections;
  if List.mem true sections then begin
    let balls, counts =
      Layers.engine_probe ~seed ~init:(Rbb_core.Config.uniform ~n:large_n) ~balls_rounds:10
        ~counts_rounds:40
    in
    Layers.replay_gates ~rounds:5 ~timed:true ~balls ~counts
  end
