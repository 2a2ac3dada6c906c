"""grandkit benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``. One
caller sends the next block, simulator batch or analytics job only after the
previous one returns, with ``workers=1``.

``--trace 0`` times the workload untraced and prints the end-to-end metrics.
``--trace 1`` runs a shorter untraced pass set, replays exactly the same
inputs with timing wrappers installed (see ``tracing.py``), checks that both
runs gave the same outputs, and prints the per-layer metrics and the tracing
overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the run
environment and sample counts.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads, so timings use one core.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse
import hashlib
import itertools
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mpmath
import numpy as np
import scipy

import grandkit

if not Path(grandkit.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"grandkit imported from {grandkit.__file__}, not from src/")

from tracing import ANALYSIS_FNS, Tracer
from workloads import WORKLOADS


def percentile(values, q: float, half_width: float) -> float:
    """The mean of the values ranked within ``half_width`` percentiles of
    the ``q``-th: a single order statistic follows the noise of the one or
    two calls at that rank."""
    ordered = sorted(values)
    n = len(ordered)
    lo = int(n * (q - half_width) / 100)
    hi = max(lo + 1, math.ceil(n * (q + half_width) / 100))
    return statistics.fmean(ordered[lo:hi])


# The host is a few cores of a shared machine whose speed drifts by a
# quarter and more over seconds to minutes, as neighbours come and go; every
# timing of a run moves with it. Fixed reference work is therefore run
# after each set-up and between the timed calls, a quarter as long as they
# are in total. Each set-up's time is scaled by how fast its own slices ran,
# and each call's time by how fast the slices within HOST_WINDOW_S of it
# ran: a time is reported as it would be on a host where one slice takes
# REF_NOMINAL_S. The reference code is the benchmark's own and
# calls nothing in the program.
REF_SHARE = 0.25
REF_NOMINAL_S = 4e-3
HOST_WINDOW_S = 1.0
_REF_H = np.random.default_rng(0).integers(0, 2, size=(21, 75), dtype=np.uint8)


def reference_slice() -> int:
    """Fixed work of the kinds the program does per query: build tuples,
    test them against a parity matrix with numpy, and count in a dict. Its
    data are a few kilobytes, so the program's use of the caches slows it
    little, and it keeps no object the garbage collector tracks, so it
    neither triggers collections nor leaves them to fall in the calls."""
    counts = {}
    acc = 0
    z = [0] * 75
    for i in range(75):
        z[i] = 1
        t = tuple(z)
        acc += int(np.any((_REF_H @ np.asarray(t, dtype=np.uint8)) % 2))
        z[i] = 0
    for i in range(12000):
        k = (i * 2654435761) & 4095
        counts[k] = counts.get(k, 0) + 1
    return acc + len(counts)


class Reference:
    """Reference slices interleaved with timed work."""

    def __init__(self):
        self.busy = 0.0  # time of the calls so far
        self.starts, self.times = [], []  # start and duration of each slice
        self.total = 0.0  # sum of self.times
        for _ in range(2):  # no timed slice pays a first call's costs
            reference_slice()

    def after(self, dt: float) -> None:
        """Account ``dt`` seconds of timed work; run slices to keep up."""
        self.busy += dt
        while self.total < REF_SHARE * self.busy:
            t0 = perf_counter()
            reference_slice()
            self.starts.append(t0)
            self.times.append(perf_counter() - t0)
            self.total += self.times[-1]

    def scaled(self, starts, lat) -> list[float]:
        """Each call's time over the mean time of the slices that started
        within HOST_WINDOW_S of it, relative to REF_NOMINAL_S."""
        prefix = [0.0, *itertools.accumulate(self.times)]
        last = len(self.starts) - 1
        out = []
        for t, dt in zip(starts, lat):
            i = min(bisect_left(self.starts, t - HOST_WINDOW_S), last)
            j = max(bisect_right(self.starts, t + dt + HOST_WINDOW_S), i + 1)
            out.append(dt * REF_NOMINAL_S * (j - i) / (prefix[j] - prefix[i]))
        return out


def timed_setup(wl) -> dict:
    """One set-up, then reference slices a quarter as long; ``host`` is
    their mean time over REF_NOMINAL_S. The untimed slices of
    ``Reference()`` come first and pay the copy-on-write faults a forked
    set-up leaves behind."""
    r = wl.setup()
    ref = Reference()
    ref.after(r["total"])
    r["host"] = ref.total / len(ref.times) / REF_NOMINAL_S
    return r


def _serve_setups(wl, requests: int, results: int) -> int:
    """The set-up child's loop: one grandchild per byte read."""
    while os.read(requests, 1):
        pid = os.fork()
        if pid == 0:
            try:
                os.write(results, (json.dumps(timed_setup(wl)) + "\n").encode())
            except BaseException:
                traceback.print_exc()
                sys.stderr.flush()
                os._exit(1)
            os._exit(0)
        _, status = os.waitpid(pid, 0)
        if status != 0:
            return 1
    return 0


class ColdSetups:
    """Set-ups in grandchildren of the runner, spread over the timed loop.

    A child forked before the runner sets up waits for requests and forks
    one grandchild per set-up. Each set-up so has the runner's imports but
    none of the program's caches, and pays what a fresh process pays after
    import, at whatever point of the run it is asked for. Spread over the
    run, the set-ups meet as many states of the host as the calls do."""

    def __init__(self, wl, count: int, seconds: float):
        self.count = count
        self.interval = seconds / count if count else 0.0
        self.results = []
        requests, self._requests = os.pipe()
        results, writer = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self._requests)
            os.close(results)
            try:
                code = _serve_setups(wl, requests, writer)
            except BaseException:
                traceback.print_exc()
                sys.stderr.flush()
                code = 1
            os._exit(code)
        os.close(requests)
        os.close(writer)
        self._results = os.fdopen(results)

    def due(self, elapsed: float) -> bool:
        """Whether a set-up is due ``elapsed`` seconds into the loop."""
        done = len(self.results)
        return done < self.count and elapsed >= done * self.interval

    def run_one(self) -> float:
        """One set-up; returns the seconds it took, its slices included."""
        t0 = perf_counter()
        os.write(self._requests, b".")
        line = self._results.readline()
        if not line:
            raise SystemExit("a set-up failed in a child process")
        self.results.append(json.loads(line))
        return perf_counter() - t0

    def finish(self) -> None:
        while len(self.results) < self.count:
            self.run_one()

    def stop(self) -> None:
        """End the child and wait for it; safe to call on any path out."""
        os.close(self._requests)
        self._results.close()
        _, status = os.waitpid(self.pid, 0)
        if status != 0:
            raise SystemExit(f"the set-up child failed (status {status})")


def setup_stats(reps, scaled: bool) -> dict:
    """Medians over the set-ups; with ``scaled``, set-up time is divided by
    each set-up's own host factor."""
    return {
        "setup_s": statistics.median(r["total"] / (r["host"] if scaled else 1.0) for r in reps),
        "build_s": statistics.median(r["build"] for r in reps),
        "first_rank_s": statistics.median(r["first_rank"] for r in reps),
    }


def run_passes(wl, seconds: float, ref: Reference, setups: ColdSetups):
    """Whole passes until ``seconds`` of calls and slices have passed; the
    last pass may run over. The set-ups due run between calls and do not
    count against ``seconds``. Returns inputs, checkable outputs, and the
    start and latency of each call."""
    items, outs, starts, lat = [], [], [], []
    start = perf_counter()
    index = 0
    while perf_counter() - start < seconds:
        for item in wl.make_pass(index):
            t0 = perf_counter()
            out = wl.call(item)
            lat.append(perf_counter() - t0)
            starts.append(t0)
            ref.after(lat[-1])
            if setups.due(perf_counter() - start):
                start += setups.run_one()
            items.append(item)
            outs.append(wl.collect(item, out))
        index += 1
    return items, outs, starts, lat


def replay_traced(wl, items, tracer: Tracer):
    outs, lat = [], []
    with tracer.installed():
        for item in items:
            t0 = perf_counter()
            out = wl.call(item)
            dt = perf_counter() - t0
            lat.append(dt)
            outs.append(wl.collect(item, out))
    return outs, lat


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, setup, items, lat) -> dict:
    ops = sum(wl.ops(i) for i in items)
    return {
        "setup_s": metric(setup["setup_s"], "s"),
        "ops_per_s": metric(ops / sum(lat), "1/s"),
        "call_ms_p50": metric(1e3 * percentile(lat, 50, 5), "ms"),
        "call_ms_p90": metric(1e3 * percentile(lat, 90, 3), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(wl, setup, items, outs, lat, traced_lat, tracer: Tracer) -> dict:
    ops = sum(wl.ops(i) for i in items)
    tot = tracer.totals

    def rate(name, scale):
        calls, t, _ = tot[name]
        return scale * t / calls if calls else 0.0

    def per_op(name):
        return tot[name][0] / ops

    decodes = [o for o in outs if hasattr(o, "queries")]
    queries = sum(o.queries for o in decodes)
    decode_time = sum(dt for o, dt in zip(outs, lat) if hasattr(o, "queries"))
    trials = ops if wl.unit == "trial" else 0
    m = {
        "decoder.queries": metric(queries / ops, "1/op"),
        "decoder.abandon_frac": metric(
            sum(o.status.value == "abandoned" for o in decodes) / ops, "fraction"),
        "decoder.us_per_query": metric(1e6 * decode_time / queries if queries else 0.0, "us"),
        "decoder.self_us_per_query": metric(
            1e6 * tot["decoder.grand_decode"][2] / queries if queries else 0.0, "us"),
        "guesswork.iter_guesses.guesses": metric(per_op("guesswork.iter_guesses"), "1/op"),
        "guesswork.iter_guesses.us_per_guess": metric(rate("guesswork.iter_guesses", 1e6), "us"),
        "guesswork.guess_rank.calls": metric(per_op("guesswork.guess_rank"), "1/op"),
        "guesswork.guess_rank.us_per_call": metric(rate("guesswork.guess_rank", 1e6), "us"),
        "guesswork.rate_function_value.calls": metric(
            per_op("guesswork.rate_function_value"), "1/op"),
        "guesswork.rate_function_value.us_per_call": metric(
            rate("guesswork.rate_function_value", 1e6), "us"),
        "guesswork.first_call_ms": metric(1e3 * setup["first_rank_s"], "ms"),
        "codebook.contains.calls": metric(per_op("codebook.contains"), "1/op"),
        "codebook.contains.us_per_call": metric(rate("codebook.contains", 1e6), "us"),
        "codebook.build_s": metric(setup["build_s"], "s"),
        "codebook.sample_u_exact.calls": metric(per_op("codebook.sample_u_exact"), "1/op"),
        "codebook.sample_u_exact.us_per_call": metric(rate("codebook.sample_u_exact", 1e6), "us"),
        "noise_models.sample_noise_with.calls": metric(
            per_op("noise_models.sample_noise_with"), "1/op"),
        "noise_models.sample_noise_with.us_per_call": metric(
            rate("noise_models.sample_noise_with", 1e6), "us"),
        "simulator.run_race.self_us_per_trial": metric(
            1e6 * tot["simulator.run_race"][2] / trials if trials else 0.0, "us"),
    }
    for fn in ANALYSIS_FNS:
        name = f"analysis.{fn}"
        m[f"{name}.calls"] = metric(per_op(name), "1/op")
        m[f"{name}.ms_per_call"] = metric(rate(name, 1e3), "ms")
        calls, _, self_s = tot[name]
        m[f"{name}.self_ms_per_call"] = metric(1e3 * self_s / calls if calls else 0.0, "ms")
    calls, _, self_s = tot["cli.main"]
    m["cli.main.calls"] = metric(calls / ops, "1/op")
    m["cli.main.self_ms_per_call"] = metric(1e3 * self_s / calls if calls else 0.0, "ms")
    m["trace.overhead_ratio"] = metric(sum(traced_lat) / sum(lat), "ratio")
    return m


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "argv": sys.argv,
        "seed": args.seed,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV},
    }


def digest(wl, outs) -> str:
    h = hashlib.sha256()
    for out in outs:
        h.update(wl.digest(out).encode())
        h.update(b"\n")
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        result, details = run(args, workdir)
    print(json.dumps({"env": environment(args), "details": details}))
    print(json.dumps(result))
    return 0


def run(args, workdir: str):
    wl = WORKLOADS[args.workload](args.seed, workdir)
    seconds = args.seconds / 3 if args.trace else args.seconds
    # Every set-up is cold: the runner's own, which the timed calls use,
    # comes after the set-up child is forked and before any other set-up.
    forks = ColdSetups(wl, wl.setup_reps - 1, seconds)
    try:
        own = timed_setup(wl)
        ref = Reference()
        items, outs, starts, lat = run_passes(wl, seconds, ref, forks)
        forks.finish()
    finally:
        forks.stop()
    setups = [own, *forks.results]
    setup = setup_stats(setups, scaled=True)
    failed = wl.failures(items, outs)
    attempted = sum(wl.ops(i) for i in items)
    details = {
        "workload": wl.name,
        "unit": wl.unit,
        "calls": len(lat),
        "setup_s": [r["total"] for r in setups],
        "setup_host": [r["host"] for r in setups],
        "reference_slices": len(ref.times),
        "digest": digest(wl, outs),
    }
    if not args.trace:
        scaled = ref.scaled(starts, lat)
        details["host"] = sum(lat) / sum(scaled)
        metrics = end_to_end(wl, setup, items, scaled)
        details["unscaled"] = {k: m["value"] for k, m in end_to_end(
            wl, setup_stats(setups, scaled=False), items, lat).items()}
        same = True
    else:
        tracer = Tracer()
        traced, traced_lat = replay_traced(wl, items, tracer)
        details["traced_digest"] = digest(wl, traced)
        same = details["traced_digest"] == details["digest"]
        failed += wl.failures(items, traced)
        attempted *= 2
        metrics = per_layer(wl, setup, items, outs, lat, traced_lat, tracer)
        details["overhead_ratio"] = metrics["trace.overhead_ratio"]["value"]
    result = {
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, details


if __name__ == "__main__":
    sys.exit(main())
