"""The benchmark's workloads.

Each workload sets up its program state, produces passes of inputs from its
seed, makes one public-API call per input, and checks the outputs afterwards,
outside the timed region. A pass is the unit of work a run repeats: runs
stop only between passes, so every run sees the same mix of inputs.

Decode inputs (information words and noise) are generated here with numpy,
not with ``grandkit.noise_models``, so a change to the program's sampler
cannot change what the decode workloads decode.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from bisect import bisect_right
from math import comb
from time import perf_counter

import numpy as np

from grandkit import analysis, cli, codebook, decoder, guesswork, noise_models, simulator


def _child_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


class Workload:
    setup_reps = 15  # cold set-ups per run; their median is reported
    unit = "block"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, 0])

    def setup(self) -> dict:
        """Build the program state; returns the timed parts in seconds.
        Called with none of the program's caches filled."""
        raise NotImplementedError

    def make_pass(self, index: int) -> list:
        raise NotImplementedError

    def call(self, item):
        raise NotImplementedError

    def ops(self, item) -> int:
        return 1

    def collect(self, item, out):
        """The call's output in checkable form; runs outside the timed region."""
        return out

    def digest(self, out) -> str:
        raise NotImplementedError

    def failures(self, items, outs) -> int:
        """Operations (blocks, trials or jobs) whose output fails an oracle."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Decoding.
# ---------------------------------------------------------------------------


def _first_rank(model, n: int) -> float:
    t0 = perf_counter()
    guesswork.guess_rank(model, (0,) * n)
    return perf_counter() - t0


class _Decode(Workload):
    n: int
    budget = None

    def call(self, block):
        return decoder.grand_decode(self.cb, block[0], self.model, max_queries=self.budget)

    def digest(self, res) -> str:
        return f"{res.status.value}:{res.queries}"

    def _is_codeword(self, word) -> bool:
        raise NotImplementedError

    def _block_ok(self, block, res) -> bool:
        y, z_sent, rank_sent = block
        r_sent = guesswork.guess_rank(self.model, z_sent)
        if rank_sent is not None and r_sent != rank_sent:
            return False
        if res.status.value == "abandoned":
            return (
                self.budget is not None
                and res.decoded is None
                and res.queries == self.budget
                and r_sent > self.budget
            )
        noise = tuple(a ^ b for a, b in zip(y, res.decoded))
        return (
            self._is_codeword(res.decoded)
            and res.queries == guesswork.guess_rank(self.model, noise)
            and r_sent >= res.queries
        )

    def failures(self, items, outs) -> int:
        return sum(not self._block_ok(b, r) for b, r in zip(items, outs))


def _unrank_weight(n: int, w: int, j: int) -> tuple[int, ...]:
    """The j-th (0-based) length-n binary word of weight w in ascending
    numeric order, first symbol most significant."""
    z = [0] * n
    for i in range(n):
        if w == 0:
            break
        zeros_first = comb(n - i - 1, w)
        if j >= zeros_first:
            z[i] = 1
            j -= zeros_first
            w -= 1
    return tuple(z)


class LinearDecode(_Decode):
    """GRANDAB at the paper's headline point: BSC(0.01), n=75, k=54, with the
    query budget at the 0.99 guesswork quantile.

    The noise follows Bernoulli(p)^n through stratified inverse-CDF
    sampling of its guess rank at fixed points: block i of a pass takes the
    noise word at the rank quantile (i + 1/2) / m, and the blocks of a pass
    are shuffled. Every pass
    so holds the same share of each weight layer, and exactly 1% of its
    blocks lie beyond the budget. Decode cost is nearly all in the few
    blocks of weight 3 and above, whose ranks spread over a third of the
    budget within one stratum; with a random point per stratum, a run's
    time and its percentiles would follow where the seed put those points.
    The code is the same for every seed. A block's query count is fixed by
    its noise and the code, since another codeword is hit early exactly when
    the noise plus a codeword comes first in guess order; with a code drawn
    per seed, about one run in ten would end a heavy block early on every
    pass and run up to a third faster. The seed draws the information words
    and the order of the blocks.
    """

    name = "decode-bsc75-linear"
    n, k, p = 75, 54, 0.01
    pass_size = 100  # a multiple of 100, so the budget quantile is a stratum edge

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.model = noise_models.bsc(self.p)
        self.code_seed = _child_seed(0, 1)  # one code for every seed
        n, p = self.n, self.p
        self.q = [p**w * (1.0 - p) ** (n - w) for w in range(n + 1)]
        self.below = [0.0]  # P(weight < w)
        self.offset = [0]  # number of words of weight < w
        for w in range(n + 1):
            self.below.append(self.below[-1] + comb(n, w) * self.q[w])
            self.offset.append(self.offset[-1] + comb(n, w))

    def setup(self):
        t0 = perf_counter()
        cb = codebook.build_linear_codebook(self.n, self.k, self.code_seed)
        t1 = perf_counter()
        budget = analysis.bsc_guesswork_quantile(self.n, self.p, 0.99)
        first = _first_rank(self.model, self.n)
        total = perf_counter() - t0
        self.cb, self.budget = cb, budget
        self.gen = np.array(cb.generator, dtype=np.int64)
        return {"total": total, "build": t1 - t0, "first_rank": first}

    def _noise(self, u: float):
        n = self.n
        w = min(bisect_right(self.below, u) - 1, n)
        j = min(int((u - self.below[w]) / self.q[w]), comb(n, w) - 1)
        return _unrank_weight(n, w, j), self.offset[w] + j + 1

    def make_pass(self, index):
        m = self.pass_size
        quantiles = (self.rng.permutation(m) + 0.5) / m
        info = self.rng.integers(0, 2, size=(m, self.k))
        words = info @ self.gen % 2
        blocks = []
        for c, u in zip(words, quantiles):
            z, rank = self._noise(float(u))
            y = tuple(int(a) ^ b for a, b in zip(c, z))
            blocks.append((y, z, rank))
        return blocks

    def _is_codeword(self, word) -> bool:
        w = np.asarray(word, dtype=np.int64)
        return bool(np.array_equal(w[: self.k] @ self.gen % 2, w))


class ExplicitDecode(_Decode):
    """GRAND without a budget on a stored uniform codebook: n=24, R=0.75
    (2^18 words), under Markov noise (a=0.05, b=0.3)."""

    name = "decode-markov24-explicit"
    n, rate, a, b = 24, 0.75, 0.05, 0.3
    pass_size = 500
    setup_reps = 3  # a build takes seconds

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.model = noise_models.BinaryMarkovNoise(self.a, self.b)
        self.code_seed = _child_seed(seed, 1)

    def setup(self):
        t0 = perf_counter()
        cb = codebook.build_uniform_codebook(self.n, self.rate, self.code_seed)
        t1 = perf_counter()
        first = _first_rank(self.model, self.n)
        total = perf_counter() - t0
        self.cb = cb
        return {"total": total, "build": t1 - t0, "first_rank": first}

    def _noise(self, m: int) -> np.ndarray:
        """Two-state chain started from its stationary law a / (a + b)."""
        u = self.rng.random((m, self.n))
        z = np.empty((m, self.n), dtype=np.int64)
        z[:, 0] = u[:, 0] < self.a / (self.a + self.b)
        for i in range(1, self.n):
            z[:, i] = np.where(z[:, i - 1] == 0, u[:, i] < self.a, u[:, i] >= self.b)
        return z

    def make_pass(self, index):
        m = self.pass_size
        idx = self.rng.integers(0, self.cb.size, size=m)
        noise = self._noise(m)
        blocks = []
        for i, z in zip(idx, noise):
            c = self.cb.words[int(i)]
            z = tuple(int(s) for s in z)
            blocks.append((tuple(a ^ b for a, b in zip(c, z)), z, None))
        return blocks

    def _is_codeword(self, word) -> bool:
        try:
            return self.cb.words[self.cb.decode_to_info(word)] == tuple(word)
        except codebook.NotACodewordError:
            return False


# ---------------------------------------------------------------------------
# Race-mode simulation.
# ---------------------------------------------------------------------------


class Race(Workload):
    """``run_race`` at BSC(0.01), n=75, R=0.72, one worker, in calls of
    ``batch`` trials. The simulator samples its own noise here: that sampler
    is part of what is measured."""

    name = "race-bsc75"
    unit = "trial"
    n, rate, p = 75, 0.72, 0.01
    batch = 200
    calls_per_pass = 10

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.model = noise_models.bsc(self.p)

    def setup(self):
        """The first ``guess_rank``, which fills the class table."""
        first = _first_rank(self.model, self.n)
        return {"total": first, "build": 0.0, "first_rank": first}

    def make_pass(self, index):
        return [
            simulator.SimConfig(
                model=self.model, n=self.n, rate=self.rate, trials=self.batch,
                mode="race", seed=_child_seed(self.seed, 1000 + index * self.calls_per_pass + i),
                workers=1,
            )
            for i in range(self.calls_per_pass)
        ]

    def call(self, cfg):
        return simulator.run_race(cfg)

    def ops(self, cfg) -> int:
        return cfg.trials

    def digest(self, rep) -> str:
        return json.dumps(rep.data_dict(), sort_keys=True)

    def failures(self, items, outs) -> int:
        trials = sum(r.trials for r in outs)
        bad = sum(
            r.trials != c.trials
            or r.abandonment_rate != 0.0
            or sum(r.query_histogram.values()) != c.trials
            for c, r in zip(items, outs)
        )
        errors = sum(round(r.block_error_rate * r.trials) for r in outs)
        pred = 1.0 - analysis.bsc_success_prob_fine(self.n, self.rate, self.p)
        sigma = math.sqrt(pred * (1.0 - pred) / trials)
        if bad or abs(errors / trials - pred) > 4.0 * sigma:
            return trials
        return 0


# ---------------------------------------------------------------------------
# Analytics.
# ---------------------------------------------------------------------------

_GRID = object()  # stands for the pass's rate grid in a job's arguments


def _near(x: float, target: float, rel: float) -> bool:
    return abs(x - target) <= rel * target


def _exponent_csv_ok(text: str, capacity=None) -> bool:
    """epsilon is 0 at and above capacity and non-increasing in R; with
    ``capacity`` given, the capacity column must match it to 1e-3
    (criterion 3)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    cap = float(rows[0]["capacity"])
    eps = [float(r["epsilon"]) for r in rows]
    rates = [float(r["R"]) for r in rows]
    return (
        len(rows) == 99
        and all(e == 0.0 for r, e in zip(rates, eps) if r >= cap)
        and all(b <= a for a, b in zip(eps, eps[1:]))
        and (capacity is None or abs(cap - capacity) <= 1e-3)
    )


def _blerr_ok(block_error: float, per_bit: float):
    """Criteria 1 and 2: block error within 5%, queries per bit within 20%."""

    def ok(text: str) -> bool:
        out = json.loads(text)
        return _near(out["block_error"], block_error, 0.05) and _near(
            out["queries_per_bit"], per_bit, 0.2
        )

    return ok


class Sweep(Workload):
    """A fixed list of analytics jobs: ``exponents`` on a 0.01-step rate grid
    for three noise models, one ``figure-sweep``, ``blerr`` at the two
    criterion-1 points with the budget of criterion 2, and
    ``max_achievable_rate`` at the two criterion-9 points (one job). Nothing
    here decodes or simulates. Seven jobs of distinct lengths put the median
    and the 90th percentile of a run's job latencies inside one job's
    samples, not on the edge between two jobs.

    Each pass shifts the 99-point rate grids by a seeded offset below one
    step, so no two passes ask for the same rates: a cache kept across calls
    would otherwise look like a gain that a one-job-per-process CLI user
    never sees. The criterion-point jobs are fixed by the paper.
    """

    name = "analytics-sweep"
    unit = "job"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        exp = ["exponents", "--rate-grid", _GRID]
        # (name, kind, arguments, check); CLI jobs write into the run's directory
        self.jobs = [
            ("exponents-bsc0.01", "csv", [*exp, "--model", "bsc", "--p", "0.01",
             "--auto-delta", "--p-abandon", "0.01", "--n", "75"], _exponent_csv_ok),
            ("exponents-bsc0.1", "csv", [*exp, "--model", "bsc", "--p", "0.1",
             "--delta", "0.3"], lambda t: _exponent_csv_ok(t, 0.531)),
            ("exponents-markov", "csv", [*exp, "--model", "markov", "--a", "0.002",
             "--b", "0.2", "--delta", "0.05"], _exponent_csv_ok),
            ("figure-sweep-bsc0.1", "csv", ["figure-sweep", "--model", "bsc", "--p", "0.1",
             "--n", "100", "--rate-grid", _GRID, "--trials", "0"],
             lambda t: _exponent_csv_ok(t, 0.531)),
            ("blerr-n75", "blerr", (75, 0.01, 0.72, 0.99), _blerr_ok(3.15e-3, 16.0)),
            ("blerr-n700", "blerr", (700, 1e-4, 0.965, 0.999), _blerr_ok(4.69e-5, 0.172)),
            ("max-rate", "rate", ((1e-4, 700, 1e-3, 1e-3), (1e-2, 75, 1e-2, 1e-2)),
             lambda f: abs(f[0] - 0.965) <= 0.01 and abs(f[1] - 0.724) <= 0.01),
        ]

    def setup(self):
        """The auto-delta step of the first ``exponents`` job: the abandonment
        margin for BSC(0.01), n=75, p_abandon=0.01."""
        model = noise_models.bsc(0.01)
        t0 = perf_counter()
        analysis.select_delta(model, 75, 0.01, 0.01)
        return {"total": perf_counter() - t0, "build": 0.0, "first_rank": 0.0}

    def make_pass(self, index):
        start = 0.005 + 0.01 * float(self.rng.random())
        grid = f"{start!r}:0.01:{start + 0.98!r}"
        return [
            (index, (name, kind, [grid if a is _GRID else a for a in args], check))
            if kind == "csv" else (index, (name, kind, args, check))
            for name, kind, args, check in self.jobs
        ]

    def call(self, item):
        index, (name, kind, args, _) = item
        if kind == "csv":
            path = f"{self.workdir}/{index}-{name}.csv"
            cli.main([*args, "--out", path])
            return path
        if kind == "blerr":
            n, p, rate, quantile = args
            budget = analysis.bsc_guesswork_quantile(n, p, quantile)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli.main(["blerr", "--p", repr(p), "--n", str(n), "--rate", repr(rate),
                          "--abandon-after", str(budget)])
            return buf.getvalue()
        fractions = []
        for p, n, target, p_abandon in args:
            model = noise_models.bsc(p)
            rate = analysis.max_achievable_rate(model, n, p, target, p_abandon)
            fractions.append(rate / analysis.capacity(model))
        return fractions

    def collect(self, item, out):
        if item[1][1] == "csv":
            with open(out) as f:
                return f.read()
        return out

    def digest(self, out) -> str:
        return repr(out)

    def failures(self, items, outs) -> int:
        return sum(not item[1][3](out) for item, out in zip(items, outs))


WORKLOADS = {w.name: w for w in (LinearDecode, ExplicitDecode, Race, Sweep)}
