"""padelic benchmark: drive one seeded workload through the CLI and report metrics.

    python3 perfbench/run.py --workload expand --seed 1 --seconds 16 --trace 0

Run from the root of a checkout.  Each run starts fresh worker interpreters
(worker.py) one after another, never two at once.  With ``--trace 0`` it
prints the end-to-end metrics of an untraced run, with ``--trace 1`` the
per-layer metrics of a traced run; ``--workload all`` runs every workload
both ways.  End-to-end timings are scaled to a reference host speed measured
next to each request (REFERENCE_CHUNK_S).  Each metric is printed on its own line with its unit, and the
last line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A full record (run metadata, calibration times, sample
counts, the tail percentile used) goes to ``.perfbench_out/``, and a traced
run's spans beside it.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import spans  # noqa: E402

# The timed loop is split over this many fresh workers, one after another, so
# that one process's speed does not decide a whole run (on a shared 2-vCPU
# Xeon VM, fresh processes ran one fixed loop in either ~0.08 s or ~0.12 s).
LOOP_WORKERS = 8
# Fresh interpreters whose set-up time is measured (the loop workers among
# them); setup_s is their median.
SETUP_SAMPLES = 11
# A run must finish within 180 s; workers are killed past this many seconds.
RUN_DEADLINE_S = 170
# Timings are reported at the speed of a host on which one calibration chunk
# (worker.calibration_chunk) takes this long: each latency is multiplied by
# this over the mean time of the chunks run just before and just after it in
# its worker, and each set-up time by this over the median of the chunks
# around it.  The chunk took about this long in the quieter phases of the
# 2-vCPU Xeon VM the benchmark was built on.  The unscaled figures go to the
# record.
REFERENCE_CHUNK_S = 0.0055

END_TO_END = [("requests_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: host speed, apart from padelic."""
    start = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return perf_counter() - start


def metadata(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "padelic")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "seed": seed, "commit": _commit(), "src_sha256": digest.hexdigest()}


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def start_worker(workload, seed, seconds, trace, workdir, deadline, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workdir", workdir, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    env = {k: v for k, v in os.environ.items() if k not in ("PW_PRECISION", "PYTHONPATH")}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed_factor(chunk_times) -> float:
    """Reference chunk time over the median of some measured chunk times."""
    return REFERENCE_CHUNK_S / statistics.median(chunk_times)


def scaled_latencies(part: dict) -> list:
    """A loop worker's latencies, each at the host speed measured next to it."""
    times = part["chunk_times"]
    return [x * speed_factor(times[max(0, at - 1):at + 1])
            for x, at in zip(part["latencies"], part["chunk_at"])]


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: metrics, counts and the record written to .perfbench_out/."""
    deadline = perf_counter() + RUN_DEADLINE_S
    out_dir = os.path.join(ROOT, ".perfbench_out")
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(workdir, exist_ok=True)
    record = {"workload": workload, "trace": trace, "seconds": seconds, "meta": metadata(seed),
              "calibration_before_s": calibrate()}
    tag = f"{workload}-seed{seed}-trace{trace}"
    warm_count = len(corpus.warmup_requests(workload))
    try:
        if trace:
            parts = [start_worker(workload, seed, seconds, 1, workdir, deadline,
                                  ["--spans", os.path.join(out_dir, tag + ".spans.jsonl.gz")])]
        else:
            parts = [start_worker(workload, seed, seconds / LOOP_WORKERS, 0, workdir, deadline,
                                  ["--part", f"{j}/{LOOP_WORKERS}"])
                     for j in range(LOOP_WORKERS)]
        samples = parts + [start_worker(workload, seed, seconds, 0, workdir, deadline,
                                        ["--setup-only"])
                           for _ in range(0 if trace else SETUP_SAMPLES - LOOP_WORKERS)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["calibration_after_s"] = calibrate()

    failures = [f for s in samples for f in s["warmup_failures"]]
    failures += [f for part in parts for f in part["failures"] + part.get("traced_failures", [])]
    served = sum(part["attempted"] for part in parts)
    attempted = warm_count * len(samples) + served * (2 if trace else 1)
    if trace:
        metrics = {name: {"value": parts[0]["per_layer"].get(name), "unit": unit}
                   for name, unit, _ in spans.per_layer_metric_names()}
        record["spans_recorded"] = parts[0]["spans_recorded"]
    else:
        q = corpus.TAIL_PERCENTILE[workload]
        setup_factors = [speed_factor(s["setup_chunk_times"]) for s in samples]
        values, unscaled = {}, {}
        for out, lat, setup in (
                (values, [x for part in parts for x in scaled_latencies(part)],
                 [s["setup_s"] * f for s, f in zip(samples, setup_factors)]),
                (unscaled, [x for part in parts for x in part["latencies"]],
                 [s["setup_s"] for s in samples])):
            if not lat:
                raise RuntimeError(f"no request succeeded: {failures[:3]}")
            lat.sort()
            out.update(requests_per_s=len(lat) / sum(lat),
                       latency_p50_ms=statistics.median(lat) * 1000,
                       latency_tail_ms=nearest_rank(lat, q) * 1000,
                       setup_s=statistics.median(setup),
                       peak_rss_mb=max(part["peak_rss_mb"] for part in parts))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        record.update(tail_percentile=q, samples=len(lat), unscaled=unscaled,
                      speed_factors=[speed_factor(part["chunk_times"]) for part in parts],
                      setup_speed_factors=setup_factors,
                      setup_samples=[s["setup_s"] for s in samples],
                      error_rate=len(failures) / attempted)
    record.update(rounds=sum(part["rounds"] for part in parts), attempted=attempted,
                  failed=len(failures), failures=failures[:20], metrics=metrics)
    with open(os.path.join(out_dir, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict, prefix: str = "") -> None:
    for name, m in record["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{prefix}{name:48s} {value:>14s} {m['unit']}")
    if "tail_percentile" in record:
        print(f"{prefix}  latency_tail_ms is p{record['tail_percentile']:g} of "
              f"{record['samples']} samples; setup_s is the median of "
              f"{len(record['setup_samples'])}; error_rate {record['error_rate']:g}")
        factors = record["speed_factors"]
        print(f"{prefix}  timings scaled to the reference host speed by about "
              f"{min(factors):.3f}-{max(factors):.3f} (median per worker); unscaled: " + ", ".join(
                  f"{name} {value:.6g}" for name, value in record["unscaled"].items()))
    print(f"{prefix}  calibration loop {record['calibration_before_s']:.3f} s before, "
          f"{record['calibration_after_s']:.3f} s after; {record['rounds']} rounds")
    for failure in record["failures"][:5]:
        print(f"{prefix}  FAILED {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="padelic benchmark")
    ap.add_argument("--workload", choices=corpus.WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "padelic", "cli.py")):
        print(f"no padelic sources under {ROOT}/src", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(ROOT, "src", "padelic"), quiet=1)
    runs = ([(w, t) for w in corpus.WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    attempted = failed = 0
    metrics = {}
    for workload, trace in runs:
        try:
            record = measure(workload, args.seed, args.seconds, trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{workload} run failed: {exc}", file=sys.stderr)
            return 1
        prefix = f"{workload}." if args.workload == "all" else ""
        report(record, prefix)
        attempted += record["attempted"]
        failed += record["failed"]
        metrics.update({prefix + name: m for name, m in record["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
