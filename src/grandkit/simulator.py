"""Monte Carlo harness for guessing decoders.

Three modes, trading memory for fidelity:

* ``explicit`` — materialize a uniform random codebook and decode end to end;
* ``linear`` — random systematic binary code with syndrome membership. A
  trial decodes the noise z on the all-zero codeword: y = c + z has z's
  syndrome, so it decodes to c + w, in as many queries, when z decodes to w;
* ``race`` — no codebook at all, which makes large block lengths simulable: the noise
  guesswork rank races the accidental-hit time of its exact min-of-uniforms law, an integer
  read from a certified float, or from mpmath past 2^47, at a near-tie or past |A|^n = 2^1000.

All modes share one run path, the reporting schema and a deterministic
seeding scheme: per-worker generators are spawned from the master seed and
tallies are merged in worker order, so a report is reproducible bit for bit
given its config.
"""

from __future__ import annotations

import csv
import json
import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import (
    abandonment_threshold,
    capacity,
    complexity_exponents,
    error_exponent_pair,
    select_delta,
)
from .codebook import (
    LinearCodebook,
    UHitModel,
    build_linear_codebook,
    build_uniform_codebook,
    sample_u_exact,
)
from .decoder import DecodeStatus, grand_decode
from .guesswork import guess_rank
from .noise_models import (
    NoiseModel,
    _positive_int,
    _seed,
    _unit,
    model_error_probability,
    renyi_entropy_rate,
    sample_noise_with,
    shannon_entropy_rate,
)

__all__ = [
    "SimConfig",
    "SimReport",
    "run_race",
    "run_simulation",
    "figure_sweep",
    "resolve_abandonment",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SimConfig:
    model: NoiseModel
    n: int
    rate: float
    trials: int
    mode: str = "race"  # explicit | linear | race
    abandon_after: int | None = None  # fixed query budget
    p_abandon: float | None = None  # auto budget from the selection rule
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        budget = () if self.abandon_after is None else ("abandon_after",)
        for name in ("n", "trials", "workers", *budget):  # stored as ints, which JSON takes
            object.__setattr__(self, name, _positive_int(name, getattr(self, name)))
        object.__setattr__(self, "seed", _seed(self.seed))
        _unit("rate", self.rate)
        if self.mode not in ("explicit", "linear", "race"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "linear" and self.model.alphabet_size != 2:
            raise ValueError("linear mode is binary-only")
        if self.abandon_after is not None and self.p_abandon is not None:
            raise ValueError("give either a fixed budget or p_abandon, not both")
        if self.p_abandon is not None:
            _unit("p_abandon", self.p_abandon)


@dataclass(frozen=True, slots=True)
class SimReport:
    schema_version: int
    config: dict
    trials: int
    block_error_rate: float
    block_error_ci95: tuple[float, float]
    success_rate: float
    abandonment_rate: float
    avg_queries_per_bit: float
    query_histogram: dict[int, int]  # key: floor(log2(queries))
    wall_time: float

    def data_dict(self) -> dict:
        """JSON-ready content: every field but the wall-clock time, so
        identical configs serialize identically."""
        data = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "wall_time"}
        data["query_histogram"] = {str(k): v for k, v in self.query_histogram.items()}
        return data


def resolve_abandonment(cfg: SimConfig) -> int | None:
    """Query budget implied by the config: fixed, derived from the
    abandonment-probability rule, or none."""
    if cfg.abandon_after is not None:
        return cfg.abandon_after
    if cfg.p_abandon is not None:
        p = model_error_probability(cfg.model)
        delta = select_delta(cfg.model, cfg.n, cfg.p_abandon, p)
        return abandonment_threshold(cfg.n, shannon_entropy_rate(cfg.model), delta)
    return None


@dataclass
class _Tally:
    errors: int = 0
    abandons: int = 0
    total_queries: int = 0
    histogram: Counter = field(default_factory=Counter)

    def record(self, queries: int, error: bool, abandoned: bool) -> None:
        self.errors += error
        self.abandons += abandoned
        self.total_queries += queries
        self.histogram[queries.bit_length() - 1] += 1

    def merge(self, other: "_Tally") -> None:
        self.errors += other.errors
        self.abandons += other.abandons
        self.total_queries += other.total_queries
        self.histogram.update(other.histogram)


def _hit_time(hit: UHitModel):
    """U = ceil(y*), y* = T (1 - v^(1/M)), as far as a trial with rank g needs it: inf
    when U surely exceeds g, else ``sample_u_exact``'s U, read from a float y where it can.

    Below T = |A|^n = 2^1000, y = T * -expm1(ln v / M) is within 2^-50 of y* relatively:
    log and expm1 err by at most an ulp (2^-52); float(T) (inexact past 2^53 unless a power
    of two), float(M), the quotient and the product round once each (2^-53); 1 - e^-x passes
    on at most x's relative error. So y (1 -/+ 2^-48), rounded, bracket y* with 2^-49 to spare:
    U > g if the lower end exceeds g, and U is their ceiling if they share one (y < 2^47),
    which sample_u_exact's 40 extra digits find too. If ln v / M is subnormal, y, y* < 2^-21
    and U = 1. Past 2^1000 only U > g is tested, in log2, with a margin of 2^12 ulps.
    """
    log2_total, m = hit.n * math.log2(hit.alphabet_size), hit.M_n
    if log2_total < 1000:  # and M <= T at a rate below 1
        total, m = float(hit.alphabet_size**hit.n), float(m)

        def hit_time(g: int, v: float):
            y = total * -math.expm1(math.log(v) / m)
            lo, hi = y * (1 - 2.0**-48), y * (1 + 2.0**-48)
            if lo > g:
                return math.inf
            return math.ceil(hi) if math.ceil(lo) == math.ceil(hi) else sample_u_exact(hit, v)

        return hit_time
    margin, log2_m = 2.0**-40 * (log2_total + 64), math.log2(m)

    def hit_time(g: int, v: float):
        t = -math.log(v)
        # from M = 2^900, 1 - v^(1/M) is t / M to far below an ulp, and t / M may be subnormal
        log2_frac = math.log2(-math.expm1(-t / m)) if log2_m < 900 else math.log2(t) - log2_m
        if log2_total + log2_frac > math.log2(g) + margin:
            return math.inf
        return sample_u_exact(hit, v)

    return hit_time


def _race_worker(args) -> _Tally:
    model, n, rate, trials, threshold, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    hit = UHitModel(n=n, rate=rate, alphabet_size=model.alphabet_size)
    hit_time = _hit_time(hit)
    tally = _Tally()
    for _ in range(trials):
        z = sample_noise_with(model, n, rng)
        g = guess_rank(model, z)
        v = rng.random()
        while v <= 0.0:
            v = rng.random()
        # an infinite u stands for an exact U that is never needed: U > g
        u = hit_time(g, v)
        queries = min(g, u) if threshold is None else min(g, u, threshold)
        abandoned = threshold is not None and min(g, u) > threshold
        # A tie g == u counts as an error: the accidental hit is queried first
        # only by convention, and the error event is defined as U <= G.
        error = abandoned or u <= g
        tally.record(queries, error, abandoned)
    return tally


def _codebook_worker(args) -> _Tally:
    cb, model, trials, threshold, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    tally = _Tally()
    # a linear trial decodes z on the all-zero codeword; its info draw only keeps the stream
    a, linear = model.alphabet_size, isinstance(cb, LinearCodebook)
    for _ in range(trials):
        info = rng.integers(0, 2, size=cb.k) if linear else int(rng.integers(0, cb.size))
        z = sample_noise_with(model, cb.n, rng)  # a uint8 array, which membership reads as bytes
        word = z if linear else tuple((ci + zi) % a for ci, zi in zip(cb.encode(info), z.tolist()))
        res = grand_decode(cb, word, model, max_queries=threshold)
        abandoned = res.status is DecodeStatus.ABANDONED
        error = abandoned or (
            any(res.decoded) if linear else cb.decode_to_info(res.decoded) != info)
        tally.record(res.queries, error, abandoned)
    return tally


def _run_workers(worker, arg_builder, cfg: SimConfig) -> _Tally:
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.workers)
    base, rem = divmod(cfg.trials, cfg.workers)
    chunks = (base + (i < rem) for i in range(cfg.workers))
    jobs = [arg_builder(t, s) for t, s in zip(chunks, seeds) if t]
    if len(jobs) == 1:
        return worker(jobs[0])
    # one process per chunk with trials: a pool forks all its workers at the first submit
    total = _Tally()
    with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
        for tally in pool.map(worker, jobs):
            total.merge(tally)
    return total


def _report(cfg: SimConfig, threshold: int | None, tally: _Tally, wall: float) -> SimReport:
    t = cfg.trials
    config = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    err = tally.errors / t
    half = 1.96 * math.sqrt(max(err * (1.0 - err), 0.0) / t)
    return SimReport(
        schema_version=SCHEMA_VERSION,
        config={**config, "model": repr(cfg.model), "abandon_after": threshold},
        trials=t,
        block_error_rate=err,
        block_error_ci95=(max(err - half, 0.0), min(err + half, 1.0)),
        success_rate=1.0 - err,
        abandonment_rate=tally.abandons / t,
        avg_queries_per_bit=tally.total_queries / t / cfg.n,
        query_histogram=dict(sorted(tally.histogram.items())),
        wall_time=wall,
    )


def run_race(cfg: SimConfig) -> SimReport:
    """Simulate the guesswork-vs-accidental-hit race without a codebook."""
    if cfg.mode != "race":
        raise ValueError(f"run_race needs a race-mode config, not mode {cfg.mode!r}")
    return run_simulation(cfg)


def run_simulation(cfg: SimConfig) -> SimReport:
    """Run the config's trials in its mode: the race, or end-to-end decoding
    over a materialized uniform random codebook (explicit) or a random
    systematic linear code (linear)."""
    start = time.perf_counter()
    threshold = resolve_abandonment(cfg)
    if cfg.mode == "race":
        worker, head = _race_worker, (cfg.model, cfg.n, cfg.rate)
    else:
        if cfg.mode == "explicit":
            a = cfg.model.alphabet_size
            cb = build_uniform_codebook(cfg.n, cfg.rate, cfg.seed, alphabet_size=a)
        else:
            cb = build_linear_codebook(cfg.n, round(cfg.n * cfg.rate), cfg.seed)
        worker, head = _codebook_worker, (cb, cfg.model)
    tally = _run_workers(worker, lambda t, e: (*head, t, threshold, e), cfg)
    return _report(cfg, threshold, tally, time.perf_counter() - start)


def _per_bit(exponent: float, n: int, log2_a: float) -> float:
    """|A|^(n x) / n, +inf once it leaves float range."""
    log2_val = n * exponent * log2_a - math.log2(n)
    if log2_val > 1020.0:
        return math.inf
    return 2.0**log2_val


def figure_sweep(
    model: NoiseModel,
    n: int,
    rate_grid,
    out_path: str,
    delta: float | None = None,
    trials: int = 0,
    seed: int = 0,
    mode: str = "race",
    workers: int = 1,
) -> None:
    """Per-rate CSV combining the asymptotic per-bit predictions with
    optional Monte Carlo columns (enabled by ``trials`` > 0)."""
    n, trials = _positive_int("n", n), _positive_int("trials", trials, least=0)
    cap = capacity(model)
    h_half = renyi_entropy_rate(model, 0.5)
    log2_a = math.log2(model.alphabet_size)
    rows = []
    for R in rate_grid:
        R = float(R)
        grand_exp, grandab_exp = complexity_exponents(model, R, delta)
        eps, eps_ab = error_exponent_pair(model, R, delta)
        row = {
            "R": repr(R),
            "capacity": repr(cap),
            "H_half": repr(h_half),
            "epsilon": repr(eps),
            "epsilon_AB": "" if eps_ab is None else repr(eps_ab),
            "grand_queries_per_bit": repr(_per_bit(grand_exp, n, log2_a)),
            "grandab_queries_per_bit": repr(_per_bit(grandab_exp, n, log2_a)),
            "codebook_computations_per_bit": repr(_per_bit(R, n, log2_a)),
        }
        if trials > 0:
            rep = run_simulation(SimConfig(model=model, n=n, rate=R, trials=trials, mode=mode,
                                           seed=seed, workers=workers))
            row["mc_block_error"] = repr(rep.block_error_rate)
            row["mc_queries_per_bit"] = repr(rep.avg_queries_per_bit)
        rows.append(row)
    fields = list(rows[0].keys()) if rows else ["R"]
    with open(out_path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def report_to_json(report: SimReport) -> str:
    return json.dumps(report.data_dict(), indent=2, sort_keys=True)
