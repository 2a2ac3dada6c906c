import csv
import math

import pytest
from scipy.stats import ks_2samp

from grandkit import analysis as an
from grandkit.codebook import LinearCodebook
from grandkit.decoder import grand_decode
from grandkit.noise_models import BinaryMarkovNoise, IIDNoise, bsc, sample_noise
from grandkit.simulator import (
    SimConfig,
    report_to_json,
    resolve_abandonment,
    run_explicit,
    run_linear,
    run_race,
    run_simulation,
)
from .test_codebook import HAMMING_G


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(model=bsc(0.1), n=8, rate=0.5, trials=0)
    with pytest.raises(ValueError):
        SimConfig(model=bsc(0.1), n=8, rate=0.5, trials=10, mode="magic")
    with pytest.raises(ValueError):
        SimConfig(
            model=bsc(0.1), n=8, rate=0.5, trials=10,
            abandon_after=5, p_abandon=0.1,
        )


@pytest.mark.parametrize(
    "field, value",
    [("n", 0), ("n", -3), ("rate", 0.0), ("rate", 1.0), ("rate", 1.5), ("rate", -0.2),
     ("p_abandon", 0.0), ("p_abandon", 1.0), ("p_abandon", 2.0),
     ("abandon_after", 0), ("abandon_after", -5)],
)
def test_config_rejects_out_of_range_values(field, value):
    kwargs = dict(model=bsc(0.1), n=8, rate=0.5, trials=10)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} must"):
        SimConfig(**kwargs)


def test_reports_reproducible_bit_for_bit():
    cfg = SimConfig(model=bsc(0.1), n=10, rate=0.5, trials=500, mode="race", seed=3)
    r1, r2 = run_race(cfg), run_race(cfg)
    assert report_to_json(r1) == report_to_json(r2)
    cfg_e = SimConfig(
        model=bsc(0.1), n=8, rate=0.5, trials=200, mode="explicit", seed=3
    )
    assert report_to_json(run_explicit(cfg_e)) == report_to_json(run_explicit(cfg_e))


def test_error_and_success_rates_sum_to_one():
    cfg = SimConfig(model=bsc(0.2), n=8, rate=0.5, trials=400, mode="race", seed=1)
    rep = run_race(cfg)
    assert rep.block_error_rate + rep.success_rate == pytest.approx(1.0)
    assert sum(rep.query_histogram.values()) == rep.trials


def test_noiseless_channel_never_errs():
    cfg = SimConfig(
        model=IIDNoise((1.0, 0.0)), n=8, rate=0.5, trials=200, mode="explicit", seed=2
    )
    rep = run_explicit(cfg)
    assert rep.block_error_rate == 0.0
    assert rep.avg_queries_per_bit == pytest.approx(1.0 / 8)


def test_explicit_matches_block_error_formula():
    # block length and codebook size chosen large enough that the formula's
    # exponential hit law is accurate; several codebooks are pooled so one
    # draw's quality does not dominate
    n, R, p = 14, 0.5, 0.1
    pred = 1.0 - an.bsc_success_prob_fine(n, R, p)
    err_total, trials = 0.0, 0
    for seed in range(4):
        rep = run_explicit(
            SimConfig(
                model=bsc(p), n=n, rate=R, trials=2000, mode="explicit",
                seed=400 + seed,
            )
        )
        err_total += rep.block_error_rate * 2000
        trials += 2000
    sigma = math.sqrt(pred * (1.0 - pred) / trials)
    assert abs(err_total / trials - pred) < 3 * sigma


def test_race_cross_checks_explicit_small_block():
    n, R, p = 10, 0.5, 0.1
    race = run_race(
        SimConfig(model=bsc(p), n=n, rate=R, trials=20_000, mode="race", seed=11)
    )
    # pool several codebooks so a single draw's quality does not dominate
    err_total, trial_total = 0.0, 0
    for seed in range(5):
        rep = run_explicit(
            SimConfig(
                model=bsc(p), n=n, rate=R, trials=4000, mode="explicit",
                seed=100 + seed,
            )
        )
        err_total += rep.block_error_rate * 4000
        trial_total += 4000
    p1, p2 = race.block_error_rate, err_total / trial_total
    sigma = math.sqrt(
        p1 * (1 - p1) / race.trials + p2 * (1 - p2) / trial_total
    )
    assert abs(p1 - p2) < 3 * sigma


def test_linear_mode_runs_and_is_reasonable():
    n, p = 75, 0.01
    rep = run_linear(
        SimConfig(model=bsc(p), n=n, rate=54 / 75, trials=400, mode="linear", seed=5)
    )
    pred = 1.0 - an.bsc_success_prob_fine(n, 54 / 75, p)
    # random linear codes behave like the uniform ensemble, loosely
    assert rep.block_error_rate < max(10 * pred, 0.05)


def test_hamming_block_error_matches_binomial_tail():
    # a single-error-correcting code fails exactly when >= 2 bits flip
    cb = LinearCodebook(HAMMING_G)
    model = bsc(0.01)
    p2 = 1.0 - 0.99**7 - 7 * 0.01 * 0.99**6
    errors = 0
    trials = 20_000
    c = cb.encode((0, 1, 1, 0))
    for t in range(trials):
        z = sample_noise(model, 7, rng_seed=t)
        y = tuple(a ^ int(b) for a, b in zip(c, z))
        res = grand_decode(cb, y, model)
        errors += res.decoded != c
    emp = errors / trials
    sigma = math.sqrt(p2 * (1 - p2) / trials)
    assert abs(emp - p2) < 4 * sigma


def test_auto_abandonment_threshold_and_rate():
    p = 0.01
    cfg = SimConfig(
        model=bsc(p), n=75, rate=0.72, trials=30_000, mode="race",
        p_abandon=1e-2, seed=9,
    )
    threshold = resolve_abandonment(cfg)
    assert threshold is not None and threshold > 1
    rep = run_race(cfg)
    target = 1e-2 * min(p * 75, 1.0)
    # finite-n slack plus Monte Carlo noise on a small probability
    bound = 1.5 * target + 3 * math.sqrt(target / cfg.trials)
    assert rep.abandonment_rate <= bound
    assert rep.block_error_rate >= rep.abandonment_rate


def test_fixed_abandonment_caps_queries():
    cfg = SimConfig(
        model=bsc(0.3), n=10, rate=0.2, trials=500, mode="race",
        abandon_after=8, seed=4,
    )
    rep = run_race(cfg)
    assert rep.avg_queries_per_bit <= 8 / 10 + 1e-12
    assert max(rep.query_histogram) <= 3  # 2^3 = 8


def test_race_queries_match_formula():
    n, R, p = 75, 0.72, 0.01
    rep = run_race(
        SimConfig(model=bsc(p), n=n, rate=R, trials=20_000, mode="race", seed=13)
    )
    pred = an.expected_queries_fine(n, R, p)
    assert rep.avg_queries_per_bit == pytest.approx(pred, rel=0.2)


def test_worker_split_preserves_distribution():
    cfg1 = SimConfig(
        model=bsc(0.1), n=10, rate=0.5, trials=4000, mode="race", seed=7, workers=1
    )
    cfg2 = SimConfig(
        model=bsc(0.1), n=10, rate=0.5, trials=4000, mode="race", seed=7, workers=2
    )
    r1, r2 = run_race(cfg1), run_race(cfg2)
    # distribution-level agreement of the query histograms
    s1 = [b for b, c in r1.query_histogram.items() for _ in range(c)]
    s2 = [b for b, c in r2.query_histogram.items() for _ in range(c)]
    assert ks_2samp(s1, s2).pvalue > 0.01
    # and the same worker count reproduces exactly
    assert report_to_json(run_race(cfg2)) == report_to_json(r2)


def test_figure_sweep_columns(tmp_path):
    out = tmp_path / "sweep.csv"
    from grandkit.simulator import figure_sweep

    figure_sweep(bsc(0.1), 16, [0.2, 0.4, 0.6], str(out), delta=0.3, trials=50, seed=1)
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3
    for col in (
        "R",
        "epsilon",
        "grand_queries_per_bit",
        "grandab_queries_per_bit",
        "codebook_computations_per_bit",
        "mc_block_error",
    ):
        assert col in rows[0]
    # at low rate guessing costs more than computing within the codebook;
    # past the crossover rate the ordering flips
    assert float(rows[0]["grand_queries_per_bit"]) > float(
        rows[0]["codebook_computations_per_bit"]
    )
    assert float(rows[2]["grand_queries_per_bit"]) < float(
        rows[2]["codebook_computations_per_bit"]
    )


def test_run_simulation_dispatch():
    cfg = SimConfig(model=bsc(0.1), n=8, rate=0.5, trials=50, mode="race", seed=0)
    assert run_simulation(cfg).trials == 50
