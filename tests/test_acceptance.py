"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (directly to the terminal, past
pytest's capture) so the gate can be read off the run log at a glance.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

import grandkit
from grandkit import analysis as an
from grandkit.codebook import UHitModel, build_uniform_codebook, u_survival_approx, u_survival_exact
from grandkit.decoder import brute_force_ml, grand_decode
from grandkit.guesswork import guess_rank, iter_guesses, rate_function_value
from grandkit.noise_models import (
    BinaryMarkovNoise,
    bsc,
    min_entropy_rate,
    renyi_entropy_rate,
    sample_noise,
    sequence_log_prob,
    shannon_entropy_rate,
)
from grandkit.simulator import SimConfig, run_explicit, run_race


# one line per criterion, echoed in the terminal summary by conftest.py
VERDICTS: list[str] = []


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    VERDICTS.append(line)
    print(line)
    assert ok, line


def test_criterion_1_fine_block_error():
    t0 = time.perf_counter()
    e1 = 1.0 - an.bsc_success_prob_fine(75, 0.72, 0.01)
    dt1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    e2 = 1.0 - an.bsc_success_prob_fine(700, 0.965, 1e-4)
    dt2 = time.perf_counter() - t0
    ok = (
        abs(e1 - 3.15e-3) <= 0.05 * 3.15e-3
        and abs(e2 - 4.69e-5) <= 0.05 * 4.69e-5
        and dt1 < 1.0
        and dt2 < 1.0
    )
    _verdict(
        1, "fine block-error reproduction", ok,
        f"{e1:.3e} vs 3.15e-3, {e2:.3e} vs 4.69e-5",
    )


def test_criterion_2_abandonment_expected_queries():
    t1 = an.bsc_guesswork_quantile(75, 0.01, 1.0 - 1e-2)
    v1 = an.expected_queries_fine(75, 0.72, 0.01, max_queries=t1, conditional=True)
    t2 = an.bsc_guesswork_quantile(700, 1e-4, 1.0 - 1e-3)
    v2 = an.expected_queries_fine(700, 0.965, 1e-4, max_queries=t2, conditional=True)
    ok = abs(v1 - 16.0) <= 0.2 * 16.0 and abs(v2 - 0.172) <= 0.2 * 0.172
    _verdict(
        2, "abandoning-decoder expected queries per bit", ok,
        f"{v1:.2f} vs 16, {v2:.4f} vs 0.172",
    )


def test_criterion_3_capacity_spot_value():
    cap = an.capacity(bsc(0.1))
    ok = abs(cap - 0.531) <= 1e-3
    _verdict(3, "capacity spot value", ok, f"{cap:.6f} vs 0.531")


def test_criterion_4_ml_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    mismatches = 0
    trials = 0
    for model in (bsc(0.1), BinaryMarkovNoise(0.1, 0.3)):
        for t in range(500):
            n = int(rng.integers(8, 13))
            # n R = 8 keeps the codebook at exactly 256 words
            cb = build_uniform_codebook(n, 8.0 / n, seed=trials)
            assert cb.size <= 256
            c = cb.encode(int(rng.integers(cb.size)))
            z = sample_noise(model, n, rng_seed=50_000 + trials)
            y = tuple(a ^ int(b) for a, b in zip(c, z))
            got = grand_decode(cb, y, model).decoded
            best = brute_force_ml(cb, y, model)
            lp_got = sequence_log_prob(model, tuple(a ^ b for a, b in zip(y, got)))
            lp_best = sequence_log_prob(model, tuple(a ^ b for a, b in zip(y, best)))
            mismatches += abs(lp_got - lp_best) > 1e-12
            trials += 1
    dt = time.perf_counter() - t0
    ok = trials >= 1000 and mismatches == 0 and dt < 60.0
    _verdict(
        4, "ML-oracle equivalence", ok,
        f"{trials} trials, {mismatches} mismatches, {dt:.1f}s",
    )


def test_criterion_5_guess_order_correctness():
    t0 = time.perf_counter()
    ok = True
    for model in (bsc(0.1), BinaryMarkovNoise(0.1, 0.3)):
        n = 12
        emitted = []
        prev_lp = math.inf
        for z, lp in iter_guesses(model, n):
            ok = ok and lp <= prev_lp + 1e-12
            prev_lp = lp
            emitted.append(z)
        ok = ok and len(emitted) == 2**n and len(set(emitted)) == 2**n
        for i, z in enumerate(emitted):
            if guess_rank(model, z) != i + 1:
                ok = False
                break
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    _verdict(5, "guess-order correctness", ok, f"n=12 both models, {dt:.1f}s")


def test_criterion_6_accidental_hit_law():
    devs = {}
    for n in (8, 16, 24):
        m = UHitModel(n=n, rate=0.8)
        prev_e, prev_a, worst = 1.0, 1.0, 0.0
        for t in range(1, 101):
            e, a = u_survival_exact(m, t), u_survival_approx(m, t)
            worst = max(worst, abs((prev_e - e) - (prev_a - a)))
            prev_e, prev_a = e, a
        devs[n] = worst
    mean_errs = []
    for n in (8, 16, 24):
        m = UHitModel(n=n, rate=0.8)
        T = 2**n
        t = np.arange(T, dtype=np.float64)
        mean = float(np.exp(m.M_n * np.log1p(-t / T)).sum())
        mean_errs.append(abs(math.log2(mean) / n - 0.2))
    ok = (
        devs[16] < 1e-5  # frozen bound from the exact product formula
        and devs[8] > devs[16] > devs[24]
        and mean_errs[0] > mean_errs[1] > mean_errs[2]
    )
    _verdict(
        6, "accidental-hit law approximation", ok,
        f"max devs {devs[8]:.1e} > {devs[16]:.1e} > {devs[24]:.1e}",
    )


def test_criterion_7_exponent_identities():
    models = [bsc(0.1), bsc(0.01), BinaryMarkovNoise(0.002, 0.2)]
    ok = True
    for model in models:
        cap = an.capacity(model)
        H = shannon_entropy_rate(model)
        for R in np.linspace(0.01, 0.99, 100):
            R = float(R)
            if R < cap - 1e-6:
                a = an.error_exponent(model, R)
                b = an.error_exponent_piecewise(model, R)
                ok = ok and abs(a - b) <= 1e-6
        ok = ok and abs(rate_function_value(model, H)) <= 1e-6
        ok = ok and abs(
            rate_function_value(model, 0.0) - min_entropy_rate(model)
        ) <= 1e-6
        x_star = an.critical_rate_x_star(model)
        ok = ok and x_star is not None and abs(
            rate_function_value(model, x_star)
            - (x_star - renyi_entropy_rate(model, 0.5))
        ) <= 1e-6
        ok = ok and an.success_exponent(model, cap) == 0.0
        s_grid = [
            an.success_exponent(model, float(R))
            for R in np.linspace(cap + 0.01, 0.999, 20)
        ]
        ok = ok and all(x < y for x, y in zip(s_grid, s_grid[1:]))
    # termination-time rate function loses convexity above capacity (rate
    # chosen below 1 - H_min so both branches are active on the grid)
    grid = np.linspace(0.0, 0.3, 200)
    vals = np.array(an.grand_rate_function(bsc(0.1), 0.7, grid))
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    ok = ok and second.min() < -1e-9
    _verdict(7, "exponent identities on rate grids", ok)


def test_criterion_8_simulation_formula_closure():
    t0 = time.perf_counter()
    pred = 1.0 - an.bsc_success_prob_fine(75, 0.72, 0.01)
    rep = run_race(
        SimConfig(
            model=bsc(0.01), n=75, rate=0.72, trials=100_000, mode="race",
            seed=2024, workers=4,
        )
    )
    sigma = math.sqrt(pred * (1.0 - pred) / rep.trials)
    ok = abs(rep.block_error_rate - pred) <= 3 * sigma

    race_small = run_race(
        SimConfig(model=bsc(0.1), n=10, rate=0.5, trials=20_000, mode="race", seed=11)
    )
    err_total, trial_total = 0.0, 0
    for seed in range(5):
        r = run_explicit(
            SimConfig(
                model=bsc(0.1), n=10, rate=0.5, trials=4000, mode="explicit",
                seed=100 + seed,
            )
        )
        err_total += r.block_error_rate * 4000
        trial_total += 4000
    p1, p2 = race_small.block_error_rate, err_total / trial_total
    joint = math.sqrt(p1 * (1 - p1) / race_small.trials + p2 * (1 - p2) / trial_total)
    dt = time.perf_counter() - t0
    ok = ok and abs(p1 - p2) <= 3 * joint and dt < 300.0
    _verdict(
        8, "simulation-vs-formula closure", ok,
        f"race {rep.block_error_rate:.2e} vs {pred:.2e}; "
        f"cross-mode |{p1:.4f}-{p2:.4f}|, {dt:.0f}s",
    )


def test_criterion_9_capacity_fraction_headlines():
    m1 = bsc(1e-4)
    f1 = an.max_achievable_rate(m1, 700, 1e-4, 1e-3, 1e-3) / an.capacity(m1)
    m2 = bsc(1e-2)
    f2 = an.max_achievable_rate(m2, 75, 1e-2, 1e-2, 1e-2) / an.capacity(m2)
    ok = abs(f1 - 0.965) <= 0.01 and abs(f2 - 0.724) <= 0.01
    _verdict(
        9, "capacity-fraction headlines", ok,
        f"{100*f1:.2f}% vs 96.5%, {100*f2:.2f}% vs 72.4%",
    )


def _run_cli(*args: str, cwd=None) -> bytes:
    """Run ``python -m grandkit`` on the imported package; return its stdout.

    The child's ``PYTHONPATH`` starts with the directory that holds the
    ``grandkit`` this test imported, so an installed copy or another working
    directory cannot swap in different code.
    """
    pkg_root = str(Path(grandkit.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": pkg_root + (os.pathsep + inherited if inherited else ""),
    }
    cmd = [sys.executable, "-m", "grandkit", *args]
    proc = subprocess.run(cmd, capture_output=True, env=env, cwd=cwd)
    assert proc.returncode == 0, (
        f"{' '.join(cmd)} exited with {proc.returncode}:\n"
        f"{proc.stderr.decode(errors='replace')}"
    )
    return proc.stdout


def test_criterion_10_deterministic_cli_outputs(tmp_path):
    cmd = [
        "simulate", "--model", "bsc", "--p", "0.1", "--mode",
        "race", "--n", "10", "--rate", "0.5", "--trials", "500", "--seed", "7",
    ]
    out1 = _run_cli(*cmd)
    out2 = _run_cli(*cmd)
    ok = out1 == out2 and len(out1) > 0

    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep = [
        "figure-sweep", "--model", "bsc", "--p", "0.1", "--n",
        "12", "--rate-grid", "0.2:0.3:0.8", "--trials", "200", "--seed", "5",
    ]
    _run_cli(*sweep, "--out", str(f1))
    _run_cli(*sweep, "--out", str(f2))
    ok = ok and f1.read_bytes() == f2.read_bytes() and f1.stat().st_size > 0

    blerr = ["blerr", "--p", "0.01", "--n", "75", "--rate", "0.72"]
    b1 = _run_cli(*blerr)
    b2 = _run_cli(*blerr)
    ok = ok and b1 == b2 and len(b1) > 0
    _verdict(10, "deterministic CLI data outputs", ok)
