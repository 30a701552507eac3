"""One measured run of one workload, in a fresh interpreter.

run.py starts this script once per set-up sample and once per part of the
measured loop.  It imports padelic from the checkout's ``src/``, serves the
workload's warm-up requests (together: ``setup_s``), then drives the
workload's rounds through ``padelic.cli.run`` in-process with stdout
captured: a closed loop, one client, no threads.  Every response is checked
by oracle.py after its latency is taken.  Calibration chunks run before and
after set-up and between requests of the timed loop (HostSpeed), so that
run.py can scale the timings to a reference host speed.  The result is one
JSON object on stdout.

  --setup-only  report set-up time and stop;
  --trace 0     loop in whole rounds (this --part's share of them) until the
                busy time reaches --seconds and this part has served its
                share of the samples the tail percentile needs;
  --trace 1     run TRACE_ROUNDS rounds, each untraced and with spans, and
                report per-layer metrics and the tracing overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from fractions import Fraction
from time import perf_counter

import corpus
import oracle
import spans

# Rounds in a traced run: fixed, so call counts repeat exactly for a seed.
TRACE_ROUNDS = {"expand": 4, "basis": 4, "approx": 12, "query": 40}
# The timed loop runs one calibration chunk after each request that ends this
# much busy time after the previous chunk; set-up is bracketed by
# SETUP_CHUNKS chunks on each side.
CHUNK_EVERY_S = 0.05
SETUP_CHUNKS = 12


def calibration_chunk():
    """A fixed few milliseconds of the kind of arithmetic padelic spends its time on.

    Small-integer loops alone slow down less than padelic does when the host
    is busy, and Fraction polynomial products with big-integer valuations
    alone slow down more; the mix of both followed padelic's slow-downs
    closely on the host the benchmark was built on.
    """
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i % 97 + 1, 3 * i + 1)
    for _ in range(2):
        poly = [Fraction(1)]
        for k in range(12):
            new = [Fraction(0)] * (len(poly) + 1)
            for i, c in enumerate(poly):
                new[i + 1] += c / (k + 1)
                new[i] -= c * k / (k + 1)
            poly = new
        for a in range(1, 400):
            d = a * 3 ** 40 + 7
            while d % 2 == 0:
                d //= 2
            acc += d % 1_000_003
    return acc, total, poly


class HostSpeed:
    """Times of calibration chunks run next to the requests of this process.

    The shared host runs the same code at speeds up to ~3x apart from minute
    to minute and from process to process; a chunk run next to a request is
    slowed alike, so run.py scales each timing by (reference chunk time) /
    (time of the chunks just before and after it).  The chunks are padelic-free
    and run with the collector off, so a change to padelic cannot move them.
    """

    def __init__(self):
        self.times = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            gc.disable()
            try:
                start = perf_counter()
                calibration_chunk()
                self.times.append(perf_counter() - start)
            finally:
                gc.enable()


def import_cli(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import padelic.cli
    if not os.path.abspath(padelic.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"padelic imported from {padelic.cli.__file__}, not from {src}")
    return padelic.cli


class Client:
    """Writes request files and sends requests through the CLI entry point."""

    def __init__(self, cli, workdir: str):
        self.cli, self.workdir = cli, workdir

    def prepare(self, requests):
        """(request, argv) pairs with request files written to the work dir."""
        out = []
        for i, req in enumerate(requests):
            argv = list(req["argv"])
            if req["file"] is not None:
                path = os.path.join(self.workdir, f"request-{i}.json")
                with open(path, "w") as fh:
                    json.dump(req["file"], fh)
                argv = [path if a == "{file}" else a for a in argv]
            out.append((req, argv))
        return out

    def serve(self, argv):
        """(exit code, stdout text, seconds) of one request."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = perf_counter()
            try:
                code = self.cli.run(argv)
            except Exception:  # a crash is a failed request, not a failed run
                code = -1
                buf.write(traceback.format_exc())
            elapsed = perf_counter() - start
        return code, buf.getvalue(), elapsed


class Loop:
    """Latencies, busy time and failures of one pass over some rounds."""

    def __init__(self):
        self.latencies, self.busy, self.attempted = [], 0.0, 0
        self.failures, self.digests, self.rounds = [], [], 0
        self.next_chunk, self.chunk_at = 0.0, []

    def record(self, req, code, text, elapsed, check=True, chunk=0):
        """Count one response; `chunk` is how many calibration chunks preceded it."""
        self.attempted += 1
        self.busy += elapsed
        self.digests.append(hashlib.sha256(f"{code}\n{text}".encode()).hexdigest())
        if check:
            try:
                oracle.check_response(req, code, text)
            except oracle.CheckFailed as exc:
                self.failures.append(f"{req.get('kind', req['verb'])}: {exc}")
                return
        self.latencies.append(elapsed)
        self.chunk_at.append(chunk)


def serve_round(client, requests, loop, check=True, tracer=None, speed=None):
    for req, argv in requests:
        if tracer is not None:
            tracer.request = loop.attempted
        loop.record(req, *client.serve(argv), check=check,
                    chunk=len(speed.times) if speed is not None else 0)
        if speed is not None and loop.busy >= loop.next_chunk:
            speed.sample()
            loop.next_chunk = loop.busy + CHUNK_EVERY_S
    loop.rounds += 1


def traced_run(client, workload, seed):
    """Each round untraced and traced, in alternating order; (plain, traced, tracer).

    Running both passes of a round back to back, first one then the other,
    keeps host drift and warm-up out of the tracing overhead.
    """
    tracer, plain, traced = spans.Tracer(), Loop(), Loop()
    for index in range(TRACE_ROUNDS[workload]):
        requests = client.prepare(corpus.round_requests(workload, seed, index))
        first = len(traced.digests)
        passes = [(plain, None), (traced, tracer)]
        for loop, tr in passes if index % 2 == 0 else passes[::-1]:
            if tr is not None:
                tr.install()
            try:
                serve_round(client, requests, loop, check=tr is None, tracer=tr)
            finally:
                if tr is not None:
                    tr.uninstall()
        for i in range(first, len(traced.digests)):
            if traced.digests[i] != plain.digests[i]:
                traced.failures.append(f"request {i}: traced response differs")
    return plain, traced, tracer


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--part", default="0/1",
                    help="j/K: serve rounds j, j+K, j+2K, ... and a K-th of the samples")
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    warmup = corpus.warmup_requests(args.workload)
    setup_speed = HostSpeed()
    setup_speed.sample(SETUP_CHUNKS)
    start = perf_counter()
    client = Client(import_cli(args.root), args.workdir)
    warm = Loop()
    for req, argv_ in client.prepare(warmup):
        warm.record(req, *client.serve(argv_))
    setup_s = perf_counter() - start
    setup_speed.sample(SETUP_CHUNKS)
    result = {"setup_s": setup_s, "setup_chunk_times": setup_speed.times,
              "warmup_failures": warm.failures}
    if args.setup_only:
        print(json.dumps(result))
        return

    if args.trace == 0:
        part, parts = (int(x) for x in args.part.split("/"))
        loop, enough = Loop(), -(-corpus.min_samples(args.workload) // parts)
        speed = HostSpeed()
        while loop.busy < args.seconds or loop.attempted < enough:
            index = part + parts * loop.rounds
            serve_round(client, client.prepare(
                corpus.round_requests(args.workload, args.seed, index)), loop, speed=speed)
        result.update(chunk_times=speed.times, chunk_at=loop.chunk_at)
    else:
        loop, traced, tracer = traced_run(client, args.workload, args.seed)
        layers = tracer.per_layer()
        layers["tracing.requests_per_s_delta"] = (loop.attempted / loop.busy
                                                  - traced.attempted / traced.busy)
        layers["tracing.overhead_ratio"] = traced.busy / loop.busy - 1
        result.update(per_layer=layers, traced_failures=traced.failures,
                      spans_recorded=len(tracer.spans))
        if args.spans:
            tracer.write(args.spans)
    result.update(latencies=loop.latencies, attempted=loop.attempted,
                  failures=loop.failures, rounds=loop.rounds,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
