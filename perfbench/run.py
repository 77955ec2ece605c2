"""cellsim benchmark: one workload, one fresh process, one JSON result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload latency-table --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics: set-up time in fresh
interpreters, then episodes of the workload until --seconds have passed.
Host times are scaled to a reference host speed (see hostspeed.py).
--trace 1 runs the same episode untraced and then with wrappers on the
package's functions, TRACE_PAIRS times, and reports per-layer calls and
self time per episode.
Either way every simulated outcome is checked; the last line of output
is {"correct", "attempted", "failed", "metrics"}.  Details, the
simulated digest and the run's metadata go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed  # this script's directory is first on sys.path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 7  # fresh interpreters per run; setup_s is their median
TRACE_PAIRS = 3  # untraced/traced episode pairs in a traced run


def fail(message: str) -> None:
    print("error: %s" % message, file=sys.stderr)
    sys.exit(2)


def import_package() -> None:
    """Import cellsim from this checkout's sources and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "cellsim", "__init__.py")):
        fail("no cellsim sources under %s; run from the root of a checkout" % SRC)
    sys.path.insert(0, SRC)
    import cellsim
    if not os.path.abspath(cellsim.__file__).startswith(SRC + os.sep):
        fail("cellsim was imported from %s, not from %s" % (cellsim.__file__, SRC))


# --- run metadata -----------------------------------------------------------

def git_revision() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return total


def metadata(args) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_revision": git_revision(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "src_lines": src_lines()}


# --- set-up -----------------------------------------------------------------

def probe_setup(workload: str, seed: int, workdir: str, importtime: bool) -> list:
    """Run the set-up probe in SETUP_RUNS fresh interpreters, after one
    warm-up that fills the bytecode cache."""
    command = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        os.path.join(HERE, "setup_probe.py"), ROOT, workload, str(seed), workdir]
    pacer = hostspeed.Pacer()
    samples, starts = [], []
    for attempt in range(SETUP_RUNS + 1):
        proc, start, wall = pacer.timed(
            subprocess.run, command, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail("set-up probe failed: %s" % proc.stderr.strip()[-2000:])
        if attempt == 0:
            continue
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample.update(wall_s=wall, numpy_s=numpy_import_s(proc.stderr) if importtime else None)
        samples.append(sample)
        starts.append(start)
    for sample, scale in zip(samples, pacer.scales(starts, [s["wall_s"] for s in samples])):
        sample.update(scale=scale, setup_s=sample["wall_s"] * scale)
        for key in ("import_s", "build_s", "numpy_s"):
            if sample[key] is not None:
                sample[key] *= scale
    return samples


def numpy_import_s(importtime_log: str) -> float:
    """Cumulative numpy import time from `-X importtime`; 0 if not imported."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1]) / 1e6
    return 0.0


# --- measuring --------------------------------------------------------------

def timed_run(workload, seconds: float) -> tuple:
    """One warm-up episode, then episodes until `seconds` have passed,
    with the host speed kernel run between operations."""
    warmup = workload.episode()
    pacer = hostspeed.Pacer()
    pacer.sample()
    episodes = []
    deadline = time.perf_counter() + seconds
    while not episodes or time.perf_counter() < deadline:
        gc.collect()
        episodes.append(workload.episode(pace=pacer))
    pacer.sample()
    for episode in episodes:
        episode.op_scale = pacer.scales(episode.op_start, episode.op_s)
    return warmup, episodes


def end_to_end(episodes, setup, scaled: bool = True) -> dict:
    """The end-to-end metrics, in reference-host time unless scaled is
    False (then in this host's raw time).

    Every episode runs the same operations in the same order.  An
    operation's typical time is its median over the run's episodes, and
    op_p50_ms and op_p90_ms are quantiles of those typical times, so a
    host stall that hits an operation in a minority of episodes drops out.
    """
    op_s = [[t * f for t, f in zip(ep.op_s, ep.op_scale)] if scaled else ep.op_s
            for ep in episodes]
    typical = [statistics.median(times) for times in zip(*op_s)]
    deciles = statistics.quantiles(typical, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(s["setup_s" if scaled else "wall_s"] for s in setup), "s"),
        "items_per_s": (statistics.median(ep.items / sum(times)
                                          for ep, times in zip(episodes, op_s)), "1/s"),
        "op_p50_ms": (deciles[4] * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(workload, tracer) -> tuple:
    """Warm-up, then TRACE_PAIRS pairs of the same episode untraced and
    traced.  Returns the episodes, the reference-host seconds of each,
    and the mean host-speed factor of the traced ones."""
    warmup = workload.episode()
    pacer = hostspeed.Pacer()
    runs, starts, walls = [], [], []
    for _ in range(TRACE_PAIRS):
        gc.collect()
        episode, start, wall = pacer.timed(workload.episode)
        runs.append(episode)
        starts.append(start)
        walls.append(wall)
        gc.collect()
        episode, start, _ = pacer.timed(tracer.run, workload.episode, True)
        runs.append(episode)
        starts.append(start)
        walls.append(tracer.wall_s[-1])
    factors = pacer.scales(starts, walls)
    seconds = [wall * factor for wall, factor in zip(walls, factors)]
    return (warmup, runs[0::2], runs[1::2], seconds[0::2], seconds[1::2],
            statistics.mean(factors[1::2]))


def per_layer(tracer, traced, scale, untraced_s, traced_s, setup, trap_kinds) -> dict:
    calls = {name: value for name, (value, _) in tracer.metrics().items()}
    metrics = tracer.metrics(scale)
    samples = calls["irq.sample_latency.calls"]
    metrics["machine.irq_numbers.calls_per_sample"] = (
        calls["machine.irq_numbers.calls"] / samples if samples else 0.0, "calls/sample")
    traps = traced.digest.get("traps", {})
    for kind in trap_kinds:
        metrics["hvcore.traps." + kind] = (traps.get(kind, 0), "count")
    exits = sum(n for kind, n in traps.items() if kind != "Management")
    accesses = calls["hvcore.handle_access.calls"]
    metrics["hvcore.traps_per_access"] = (exits / accesses if accesses else 0.0,
                                          "traps/access")
    metrics["snapshot.bytes_per_op"] = (traced.digest.get("snapshot_bytes_per_op", 0.0),
                                        "B/op")
    metrics["import.cellsim_s"] = (statistics.median(s["import_s"] for s in setup), "s")
    metrics["import.numpy_s"] = (statistics.median(s["numpy_s"] for s in setup), "s")
    split = traced.digest.get("model", {})
    for name in ("model.floor_us", "model.reinjection_us", "model.contention_us",
                 "model.quantization_us"):
        metrics[name] = (split.get(name, 0.0), "sim_us")
    metrics["trace.wall_s"] = (statistics.median(traced_s), "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(untraced_s), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(untraced_s),
                                   "s")
    metrics["trace.harness_self_s"] = (statistics.mean(tracer.harness_self_s) * scale, "s")
    metrics["trace.accounted_share"] = (tracer.accounted_share(), "ratio")
    metrics["trace.spans"] = (tracer.span_count / len(tracer.wall_s), "count")
    metrics["host.kernel_s"] = (hostspeed.REFERENCE_S / scale, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be non-negative")
    # One CPU for this process and its set-up probes, so that the host
    # speed kernel runs where the work it scales runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import_package()
    import workloads
    from layertrace import Tracer
    if args.workload not in workloads.WORKLOADS:
        fail("unknown workload %r (known: %s)"
             % (args.workload, ", ".join(sorted(workloads.WORKLOADS))))

    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(OUT, "work-%s-%d" % (tag, os.getpid()))
    os.makedirs(workdir)
    try:
        meta = metadata(args)
        setup = probe_setup(args.workload, args.seed, workdir, importtime=bool(args.trace))
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            tracer = Tracer()
            warmup, untraced, traced, untraced_s, traced_s, scale = traced_run(
                workload, tracer)
            if args.workload == "latency-table":
                traced[0].digest["model"] = workload.model_split(traced[0].digest["rows"])
            checked = [warmup] + untraced + traced
            reference = traced[0].digest
            others = [warmup] + untraced + traced[1:]
            metrics = per_layer(tracer, traced[0], scale, untraced_s, traced_s, setup,
                                workloads.TRAP_KINDS)
            raw = {}
            tracer.write(os.path.join(OUT, tag + ".spans.jsonl"))
            digest = reference
        else:
            warmup, episodes = timed_run(workload, args.seconds)
            checked = [warmup] + episodes
            reference = warmup.digest
            others = episodes
            metrics = end_to_end(episodes, setup)
            raw = end_to_end(episodes, setup, scaled=False)
            digest = warmup.digest
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(ep.attempted for ep in checked)
    failed = sum(ep.failed for ep in checked)
    failures = [f for ep in checked for f in ep.failures][:20]
    # Every episode of a run starts from the same inputs, so every one
    # must give the same simulated results.
    for ep in others:
        same = all(ep.digest[k] == reference[k] for k in ep.digest.keys() & reference.keys())
        attempted += 1
        if not same:
            failed += 1
            failures.append("episode digest differs from the first episode")

    digest_sha = workloads.digest_sha(digest)
    op_count = sum(len(ep.op_s) for ep in checked[1:])
    record = {"meta": meta, "digest_sha256": digest_sha, "digest": digest,
              "attempted": attempted, "failed": failed, "failures": failures,
              "error_rate": failed / attempted, "operations_timed": op_count,
              "setup_probes": setup,
              "host_speed_factors": [statistics.median(ep.op_scale)
                                     for ep in checked if ep.op_scale],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "raw_host_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}}
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print("# cellsim benchmark %s" % json.dumps(meta, sort_keys=True))
    print("# simulated digest sha256 %s %s" % (
        digest_sha, json.dumps(digest, sort_keys=True)[:400]))
    print("# error_rate %d/%d = %g" % (failed, attempted, failed / attempted))
    for failure in failures:
        print("# failure: %s" % failure)
    print("# operations timed: %d in %d episodes" % (op_count, len(checked) - 1))
    if raw:
        print("# raw host time, not scaled to the reference host: %s" % "  ".join(
            "%s=%.6g" % (k, v) for k, (v, _) in raw.items()))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
