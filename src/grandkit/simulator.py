"""Monte Carlo harness for guessing decoders.

Three modes, trading memory for fidelity:

* ``explicit`` — materialize a uniform random codebook and decode end to end;
* ``linear`` — random systematic binary code with syndrome membership;
* ``race`` — no codebook at all: the noise guesswork rank races a sample of
  the accidental-hit time drawn from its exact min-of-uniforms law, which is
  what makes large block lengths simulable.

All modes share the reporting schema and a deterministic seeding scheme:
per-worker generators are spawned from the master seed and tallies are merged
in worker order, so a report is reproducible bit for bit given its config.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    capacity,
    complexity_exponents,
    error_exponent,
    grandab_error_exponent,
    select_delta,
)
from .codebook import (
    UHitModel,
    build_linear_codebook,
    build_uniform_codebook,
    sample_u_exact,
)
from .decoder import DecodeStatus, abandonment_threshold, grand_decode
from .guesswork import guess_rank
from .noise_models import (
    NoiseModel,
    model_error_probability,
    renyi_entropy_rate,
    sample_noise_with,
    shannon_entropy_rate,
)

__all__ = [
    "SimConfig",
    "SimReport",
    "run_explicit",
    "run_linear",
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
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < self.rate < 1.0:
            raise ValueError("rate must lie in (0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.mode not in ("explicit", "linear", "race"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.abandon_after is not None and self.p_abandon is not None:
            raise ValueError("give either a fixed budget or p_abandon, not both")
        if self.abandon_after is not None and self.abandon_after < 1:
            raise ValueError("abandon_after must be >= 1")
        if self.p_abandon is not None and not 0.0 < self.p_abandon < 1.0:
            raise ValueError("p_abandon must lie in (0, 1)")


@dataclass(frozen=True)
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
        """JSON-ready content, excluding wall-clock time so identical configs
        serialize identically."""
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "trials": self.trials,
            "block_error_rate": self.block_error_rate,
            "block_error_ci95": list(self.block_error_ci95),
            "success_rate": self.success_rate,
            "abandonment_rate": self.abandonment_rate,
            "avg_queries_per_bit": self.avg_queries_per_bit,
            "query_histogram": {
                str(k): v for k, v in sorted(self.query_histogram.items())
            },
        }


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


def _config_echo(cfg: SimConfig, threshold: int | None) -> dict:
    return {
        "model": repr(cfg.model),
        "n": cfg.n,
        "rate": cfg.rate,
        "trials": cfg.trials,
        "mode": cfg.mode,
        "abandon_after": threshold,
        "p_abandon": cfg.p_abandon,
        "seed": cfg.seed,
        "workers": cfg.workers,
    }


@dataclass
class _Tally:
    errors: int = 0
    abandons: int = 0
    total_queries: int = 0
    histogram: dict = field(default_factory=dict)

    def record(self, queries: int, error: bool, abandoned: bool) -> None:
        self.errors += error
        self.abandons += abandoned
        self.total_queries += queries
        b = queries.bit_length() - 1
        self.histogram[b] = self.histogram.get(b, 0) + 1

    def merge(self, other: "_Tally") -> None:
        self.errors += other.errors
        self.abandons += other.abandons
        self.total_queries += other.total_queries
        for k, v in other.histogram.items():
            self.histogram[k] = self.histogram.get(k, 0) + v


def _race_worker(args) -> _Tally:
    model, n, rate, trials, threshold, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    hit = UHitModel(n=n, rate=rate, alphabet_size=model.alphabet_size)
    tally = _Tally()
    for _ in range(trials):
        z = sample_noise_with(model, n, rng)
        g = guess_rank(model, z)
        v = rng.random()
        while v <= 0.0:
            v = rng.random()
        u = sample_u_exact(hit, v)
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
    a = model.alphabet_size
    for _ in range(trials):
        if hasattr(cb, "k"):
            info = tuple(int(b) for b in rng.integers(0, 2, size=cb.k))
        else:
            info = int(rng.integers(0, cb.size))
        c = cb.encode(info)
        z = sample_noise_with(model, cb.n, rng)
        y = tuple((ci + int(zi)) % a for ci, zi in zip(c, z))
        res = grand_decode(cb, y, model, max_queries=threshold)
        abandoned = res.status is DecodeStatus.ABANDONED
        error = abandoned or cb.decode_to_info(res.decoded) != info
        tally.record(res.queries, error, abandoned)
    return tally


def _split_trials(trials: int, workers: int) -> list[int]:
    base, rem = divmod(trials, workers)
    return [base + (1 if i < rem else 0) for i in range(workers)]


def _run_workers(worker, arg_builder, cfg: SimConfig) -> _Tally:
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.workers)
    chunks = _split_trials(cfg.trials, cfg.workers)
    jobs = [arg_builder(t, s) for t, s in zip(chunks, seeds) if t > 0]
    total = _Tally()
    if cfg.workers == 1:
        for job in jobs:
            total.merge(worker(job))
        return total
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        for tally in pool.map(worker, jobs):
            total.merge(tally)
    return total


def _report(cfg: SimConfig, threshold: int | None, tally: _Tally, wall: float) -> SimReport:
    t = cfg.trials
    err = tally.errors / t
    half = 1.96 * math.sqrt(max(err * (1.0 - err), 0.0) / t)
    return SimReport(
        schema_version=SCHEMA_VERSION,
        config=_config_echo(cfg, threshold),
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
    start = time.perf_counter()
    threshold = resolve_abandonment(cfg)
    tally = _run_workers(
        _race_worker,
        lambda t, e: (cfg.model, cfg.n, cfg.rate, t, threshold, e),
        cfg,
    )
    return _report(cfg, threshold, tally, time.perf_counter() - start)


def run_explicit(cfg: SimConfig) -> SimReport:
    """End-to-end simulation over a materialized uniform random codebook."""
    start = time.perf_counter()
    threshold = resolve_abandonment(cfg)
    cb = build_uniform_codebook(
        cfg.n, cfg.rate, cfg.seed, alphabet_size=cfg.model.alphabet_size
    )
    tally = _run_workers(
        _codebook_worker, lambda t, e: (cb, cfg.model, t, threshold, e), cfg
    )
    return _report(cfg, threshold, tally, time.perf_counter() - start)


def run_linear(cfg: SimConfig) -> SimReport:
    """End-to-end simulation over a random systematic linear code."""
    if cfg.model.alphabet_size != 2:
        raise ValueError("linear mode is binary-only")
    start = time.perf_counter()
    threshold = resolve_abandonment(cfg)
    k = round(cfg.n * cfg.rate)
    cb = build_linear_codebook(cfg.n, k, cfg.seed)
    tally = _run_workers(
        _codebook_worker, lambda t, e: (cb, cfg.model, t, threshold, e), cfg
    )
    return _report(cfg, threshold, tally, time.perf_counter() - start)


_RUNNERS = {"race": run_race, "explicit": run_explicit, "linear": run_linear}


def run_simulation(cfg: SimConfig) -> SimReport:
    return _RUNNERS[cfg.mode](cfg)


def _per_bit(exponent: float, n: int) -> float:
    """2^(n x) / n, +inf once it leaves float range."""
    log2_val = n * exponent - math.log2(n)
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
    cap = capacity(model)
    h_half = renyi_entropy_rate(model, 0.5)
    rows = []
    for R in rate_grid:
        R = float(R)
        grand_exp, grandab_exp = complexity_exponents(model, R, delta)
        row = {
            "R": repr(R),
            "capacity": repr(cap),
            "H_half": repr(h_half),
            "epsilon": repr(error_exponent(model, R)),
            "epsilon_AB": repr(grandab_error_exponent(model, R, delta))
            if delta is not None and R < cap
            else "",
            "grand_queries_per_bit": repr(_per_bit(grand_exp, n)),
            "grandab_queries_per_bit": repr(_per_bit(grandab_exp, n)),
            "codebook_computations_per_bit": repr(_per_bit(R, n)),
        }
        if trials > 0:
            cfg = SimConfig(
                model=model,
                n=n,
                rate=R,
                trials=trials,
                mode=mode,
                seed=seed,
                workers=workers,
            )
            rep = run_simulation(cfg)
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
