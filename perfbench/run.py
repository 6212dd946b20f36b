#!/usr/bin/env python3
"""The RBB benchmark: build the program from source, run one workload,
check its outputs, and report its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it prints every
end-to-end metric (the same four on every workload); with --trace 1 it
measures the workload both untraced and traced, then runs the per-layer
suite, and prints every per-layer metric, the reconciliation results and
trace.overhead_pct.  Each line is `name = value unit`; the last line is
one JSON object {"correct", "attempted", "failed", "metrics"}.  The full
record, with its host and provenance block, is saved under
.bench_run/records/ (with the span log of a traced run beside it).
Exits non-zero when a correctness gate fails.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

WORK = ".bench_run"
EXE = "_build/default/perfbench/rbbbench.exe"
RBB = "_build/default/bin/rbb_cli.exe"
RUN_TIMEOUT_S = 170

# End-to-end metrics, the same on every workload: name -> (unit, better).
E2E = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "balls_ms": ("ms", "lower"),
    "counts_ms": ("ms", "lower"),
}

# Where each workload's untraced samples give them: metric -> (sample
# series, reduction, scale).  balls_ms and counts_ms are the time of the
# workload's operation on the per-ball and the counts engine: one round
# at n = 10^6, one convergence from the pile, or the client sojourn of a
# small balls job (open loop) and of a large counts job (closed loop).
COMMON = {
    "setup_s": ("setup_s", "median", 1.0),
    "peak_rss_mb": ("peak_rss_mb", "max", 1.0),
}
SOURCES = {
    "stationary-1m": dict(COMMON, balls_ms=("balls_round_ms", "median", 1.0),
                          counts_ms=("counts_round_ms", "median", 1.0)),
    "pile-16k": dict(COMMON, balls_ms=("balls_converge_s", "median", 1e3),
                     counts_ms=("counts_converge_s", "median", 1e3)),
    "serve-mix": dict(COMMON, balls_ms=("sojourn_ms", "median", 1.0),
                      counts_ms=("counts_sojourn_ms", "median", 1.0)),
}

# Per-layer metrics measured by the suite every traced run adds.
LAYER_UNITS = {
    "rng.next_u64_ns": "ns",
    "rng.next_u64_words": "words",
    "rng.int_below_ns": "ns",
    "rng.int_below_words": "words",
    "rng.fill_int62_ns": "ns",
    "multinomial.split_blocks_us": "us",
    "multinomial.split_bins_us": "us",
    "stream.for_shard_ns": "ns",
    "process.launch_ms": "ms",
    "process.settle_ms": "ms",
    "process.round_words": "words",
    "counts.release_ms": "ms",
    "counts.place_ms": "ms",
    "counts.round_words": "words",
    "checkpoint.save_ms": "ms",
    "checkpoint.bytes": "bytes",
    "integrity.crc_ms": "ms",
    "fileio.write_atomic_ms": "ms",
    "fileio.write_atomic_small_ms": "ms",
    "protocol.submit_encode_us": "us",
    "protocol.submit_decode_us": "us",
    "protocol.event_decode_us": "us",
    "registry.observe_ns": "ns",
    "job.run_ms.small": "ms",
    "job.run_ms.large": "ms",
    "engine.compute_ms.small": "ms",
    "engine.compute_ms.large": "ms",
}

# Per-layer metrics read from the traced section: the daemon session of
# serve-mix, or the suite's short one on the other workloads.
TRACED_SAMPLES = {
    "client.ping_rtt_us": "us",
    "client.submit_rtt_us": "us",
    "client.metrics_rtt_ms": "ms",
    "admission.wait_p50_ms": "ms",
    "admission.wait_p95_ms": "ms",
    "daemon.service_p50_ms": "ms",
    "daemon.sojourn_p50_ms": "ms",
}

# Reconciliation: layer sums against the end-to-end figure they explain.
RECONCILE_TOLERANCE = 0.10


def fail(message, code=2):
    print(message, file=sys.stderr)
    sys.exit(code)


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("run.py: dune not found on PATH")


def build():
    for path in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(path):
            fail(f"run.py: {path} not found; run from the root of an rbb checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune() + ["build", "--root", ".", "--display", "quiet", "./perfbench/rbbbench.exe", "./bin/rbb_cli.exe"]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("run.py: build failed")


def run_program(args, work, raw):
    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work, "--rbb", RBB, "--out", raw,
    ]
    # Its own process group, so every process it starts (the serve daemon
    # among them) can be stopped together, also when run.py is stopped.
    proc = subprocess.Popen(cmd, start_new_session=True, stdout=sys.stderr)

    def stop_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_signal(signum, _frame):
        stop_group()
        proc.wait()
        sys.exit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, on_signal)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    stop_group()
    if code is None:
        proc.wait()
        fail(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    return code


# Host and provenance ---------------------------------------------------------


def read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def caches():
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (read(os.path.join(index, f)) for f in ("level", "type", "size"))
        if level and kind != "Instruction":
            out[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return out


def flambda():
    for cmd in (["ocamlfind", "ocamlopt", "-config"], ["ocamlopt", "-config"]):
        try:
            text = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True).stdout
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("flambda:"):
                return line.split(":", 1)[1].strip() == "true"
    return None


def git_rev():
    if not os.path.exists(".git"):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest():
    """sha256 over the sources the benchmark builds; it identifies the
    code when the checkout is a plain export without git metadata."""
    h = hashlib.sha256()
    files = ["dune-project"]
    for top in ("lib", "bin", "perfbench"):
        for base, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith(("_", ".")))
            files += [os.path.join(base, n) for n in sorted(names) if not n.endswith(".pyc")]
    for path in files:
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def host_block(rec, seed):
    model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "recommended_domain_count": rec["host"]["recommended_domain_count"],
        "ocaml_version": rec["host"]["ocaml_version"],
        "flambda": flambda(),
        "cpu_model": model,
        "caches": caches(),
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "workload_seed": seed,
    }


# Reduction -------------------------------------------------------------------


def end_to_end(workload, samples):
    out = {}
    for name, (key, how, scale) in SOURCES[workload].items():
        xs = [x for x in samples.get(key, []) if x is not None]
        if xs:
            value = max(xs) if how == "max" else stats.median(xs)
            out[name] = (value * scale, E2E[name][0])
    return out


def median_of(samples, key):
    xs = [x for x in samples.get(key, []) if x is not None]
    return stats.median(xs) if xs else None


def manifest_per_layer():
    """name -> unit of every per-layer metric BENCHMARK.json names."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def per_layer(rec, traced, e2e_untraced, e2e_traced):
    layer = {k: stats.median([x for x in v if x is not None]) for k, v in rec["layer"].items() if v}
    out = {name: (layer[name], unit) for name, unit in LAYER_UNITS.items() if name in layer}
    samples = traced["samples"]
    for name, unit in TRACED_SAMPLES.items():
        xs = [x for x in samples.get(name, []) if x is not None]
        if xs:
            out[name] = (stats.median(xs), unit)
    if samples.get("loadgen.lag_ms"):
        out["loadgen.lag_p95_ms"] = (stats.percentile(samples["loadgen.lag_ms"], 95), "ms")
    if samples.get("sojourn_ms"):
        out["sojourn.samples"] = (len(samples["sojourn_ms"]), "count")

    def has(*names):
        return all(n in out for n in names)

    if has("checkpoint.save_ms", "fileio.write_atomic_ms"):
        out["checkpoint.serialize_ms"] = (out["checkpoint.save_ms"][0] - out["fileio.write_atomic_ms"][0], "ms")
    # Round times of the traced section: stationary-1m's own rotations,
    # or the engine probe on the other workloads.
    for seq, par, name in (
        ("balls_round_ms", "balls_2dom_round_ms", "sharded.efficiency"),
        ("counts_round_ms", "counts_2dom_round_ms", "sharded_counts.efficiency"),
    ):
        a, b = median_of(samples, seq), median_of(samples, par)
        if a is not None and b is not None:
            out[name] = (a / (2 * b), "ratio")
    if has("daemon.service_p50_ms", "job.run_ms.small"):
        out["daemon.worker_overhead_ms"] = (out["daemon.service_p50_ms"][0] - out["job.run_ms.small"][0], "ms")
    client = median_of(samples, "sojourn_ms")
    if client is not None and has("daemon.sojourn_p50_ms"):
        out["daemon.event_delivery_ms"] = (client - out["daemon.sojourn_p50_ms"][0], "ms")

    # Reconciliation: (layer sum / end-to-end) - 1, in percent.
    # The round figures are the engine's own step of the very rounds the
    # kernels replayed (balls_round_ms / counts_round_ms measured moments
    # apart), so drift in the host's speed does not enter the comparison.
    recon = []
    if has("process.launch_ms", "process.settle_ms") and "process.step_ms" in layer:
        recon.append(("reconcile.balls_pct", "process.launch_ms + process.settle_ms", "balls round (Process.step)",
                      out["process.launch_ms"][0] + out["process.settle_ms"][0], layer["process.step_ms"]))
    if has("counts.release_ms", "counts.place_ms") and "counts.step_ms" in layer:
        recon.append(("reconcile.counts_pct", "counts.release_ms + counts.place_ms", "counts round (Counts_process.step)",
                      out["counts.release_ms"][0] + out["counts.place_ms"][0], layer["counts.step_ms"]))
    for shape in ("small", "large"):
        save = f"job.checkpoint_save_ms.{shape}"
        if has(f"engine.compute_ms.{shape}", f"job.run_ms.{shape}", "fileio.write_atomic_small_ms") and save in layer:
            k = rec["facts"][f"job.checkpoints.{shape}"]
            parts = out[f"engine.compute_ms.{shape}"][0] + k * layer[save] + out["fileio.write_atomic_small_ms"][0]
            recon.append((f"reconcile.job_{shape}_pct",
                          f"engine.compute_ms.{shape} + {k:g} checkpoint saves + result write",
                          f"job.run_ms.{shape}", parts, out[f"job.run_ms.{shape}"][0]))
    for name, parts, whole, a, b in recon:
        out[name] = (100.0 * (a / b - 1.0), "%")

    # Tracing overhead: traced vs untraced time metrics of this workload.
    diffs = []
    for name, (_, better) in E2E.items():
        if name in ("setup_s", "peak_rss_mb") or name not in e2e_traced or name not in e2e_untraced:
            continue
        t, u = e2e_traced[name][0], e2e_untraced[name][0]
        diffs.append(t / u - 1.0 if better == "lower" else u / t - 1.0)
    if diffs:
        out["trace.overhead_pct"] = (100.0 * stats.median(diffs), "%")
    attempted = max(1, rec["attempted"])
    out["error_share"] = (rec["failed"] / attempted, "ratio")
    return out, recon


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SOURCES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    raw = os.path.join(work, "raw.json")
    t0 = time.monotonic()
    code = run_program(args, work, raw)
    if not os.path.exists(raw):
        fail(f"run.py: {args.workload} exited with code {code} and wrote no record", code or 2)
    with open(raw) as f:
        rec = json.load(f)

    sections = rec["sections"]
    untraced = next(s for s in sections if not s["traced"])
    traced = next((s for s in sections if s["traced"]), None)
    e2e = end_to_end(args.workload, untraced["samples"])
    gates = rec["gates"]
    correct = code == 0 and all(g["ok"] for g in gates) and rec["failed"] == 0
    notes = []
    if args.workload == "serve-mix":
        for key, what in (("sojourn_ms", "small-job"), ("counts_sojourn_ms", "large-job")):
            n = len(untraced["samples"].get(key, []))
            top = stats.highest_percentile(n)
            notes.append(f"{what} sojourn samples = {n} (highest percentile with >= 10 beyond: p{top})")

    if args.trace:
        e2e_traced = end_to_end(args.workload, traced["samples"])
        metrics, recon = per_layer(rec, traced, e2e, e2e_traced)
        expected = manifest_per_layer()
    else:
        metrics, recon = e2e, []
        expected = {name: unit for name, (unit, _) in E2E.items()}
    missing = [m for m in expected if m not in metrics or metrics[m][1] != expected[m]]
    if missing:
        correct = False
        notes.append("missing metrics: " + ", ".join(missing))
    metrics = {m: metrics[m] for m in expected if m in metrics}

    host = host_block(rec, args.seed)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.monotonic() - t0,
        "host": host,
        "gates": gates,
        "notes": notes,
        "reconciliation": [
            {"name": n, "parts": p, "whole": w, "parts_value": a, "whole_value": b,
             "within_tolerance": abs(a / b - 1.0) <= RECONCILE_TOLERANCE}
            for n, p, w, a, b in recon
        ],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
    }
    records = os.path.join(WORK, "records")
    with open(os.path.join(records, f"{tag}.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    if os.path.exists(os.path.join(work, "spans.json")):
        shutil.move(os.path.join(work, "spans.json"), os.path.join(records, f"{tag}-spans.json"))
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    for g in gates:
        if not g["ok"]:
            print(f"gate FAILED {g['name']}: {g['detail']}")
    print(f"gates: {sum(g['ok'] for g in gates)}/{len(gates)} passed; "
          f"{rec['attempted']} operations attempted, {rec['failed']} failed")
    for note in notes:
        print(note)
    for r in report["reconciliation"]:
        verdict = "within" if r["within_tolerance"] else "OUTSIDE"
        print(f"reconcile {r['parts']} = {r['parts_value']:.4g} vs {r['whole']} = {r['whole_value']:.4g}: "
              f"{verdict} {RECONCILE_TOLERANCE:.0%}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
