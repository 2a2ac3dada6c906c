import csv
import json
import math

import mpmath
import numpy as np
import pytest
from scipy.stats import ks_2samp

from grandkit import analysis as an
from grandkit import simulator
from grandkit.codebook import LinearCodebook, UHitModel, build_linear_codebook, sample_u_exact
from grandkit.decoder import DecodeStatus, grand_decode
from grandkit.noise_models import BinaryMarkovNoise, IIDNoise, bsc, sample_noise_with
from grandkit.simulator import (
    SimConfig,
    report_to_json,
    resolve_abandonment,
    run_race,
    run_simulation,
)
from .oracles import linear_code_exact, run_race_exact, sample_noise
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
     ("abandon_after", 0), ("abandon_after", -5),
     ("abandon_after", 1.5), ("abandon_after", True), ("trials", 1.5), ("trials", True),
     ("n", 10.0), ("workers", 2.0),
     ("seed", -1), ("seed", 2**64), ("seed", 1.5), ("seed", True)],
)
def test_config_rejects_out_of_range_values(field, value):
    kwargs = dict(model=bsc(0.1), n=8, rate=0.5, trials=10)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} must"):
        SimConfig(**kwargs)


@pytest.mark.parametrize("mode", ["race", "linear", "explicit"])
def test_config_keeps_numpy_integers_as_ints(mode):
    ints = dict(n=8, trials=20, abandon_after=5, workers=1)
    cfg = SimConfig(model=bsc(0.1), rate=0.5, mode=mode, seed=2, n=np.int64(8),
                    trials=np.int32(20), abandon_after=np.uint16(5), workers=np.int64(1))
    plain = SimConfig(model=bsc(0.1), rate=0.5, mode=mode, seed=2, **ints)
    assert all(type(getattr(cfg, k)) is int for k in ints) and cfg == plain
    assert report_to_json(run_simulation(cfg)) == report_to_json(run_simulation(plain))


def test_reports_reproducible_bit_for_bit():
    cfg = SimConfig(model=bsc(0.1), n=10, rate=0.5, trials=500, mode="race", seed=3)
    r1, r2 = run_race(cfg), run_race(cfg)
    assert report_to_json(r1) == report_to_json(r2)
    cfg_e = SimConfig(
        model=bsc(0.1), n=8, rate=0.5, trials=200, mode="explicit", seed=3
    )
    assert report_to_json(run_simulation(cfg_e)) == report_to_json(run_simulation(cfg_e))


def test_kept_records_hold_no_instance_dict():
    """Callers keep many reports and decode results: slots, not a dict each."""
    report = run_race(SimConfig(model=bsc(0.1), n=8, rate=0.5, trials=5))
    result = grand_decode(LinearCodebook(HAMMING_G), (0,) * 7, bsc(0.1))
    assert not hasattr(report, "__dict__") and not hasattr(result, "__dict__")


def test_error_and_success_rates_sum_to_one():
    cfg = SimConfig(model=bsc(0.2), n=8, rate=0.5, trials=400, mode="race", seed=1)
    rep = run_race(cfg)
    assert rep.block_error_rate + rep.success_rate == pytest.approx(1.0)
    assert sum(rep.query_histogram.values()) == rep.trials


def test_noiseless_channel_never_errs():
    cfg = SimConfig(
        model=IIDNoise((1.0, 0.0)), n=8, rate=0.5, trials=200, mode="explicit", seed=2
    )
    rep = run_simulation(cfg)
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
        rep = run_simulation(
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
        rep = run_simulation(
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
    rep = run_simulation(
        SimConfig(model=bsc(p), n=n, rate=54 / 75, trials=400, mode="linear", seed=5)
    )
    pred = 1.0 - an.bsc_success_prob_fine(n, 54 / 75, p)
    # random linear codes behave like the uniform ensemble, loosely
    assert rep.block_error_rate < max(10 * pred, 0.05)


@pytest.mark.parametrize("budget", [None, 200])
def test_linear_mode_closes_on_the_exact_oracle(budget):
    # BSC(0.05), n = 24, k = 12, 20 000 trials: the error and abandonment rates each lie
    # within 4 binomial sigma of the oracle's exact probability (a point not tuned to pass)
    model, n, trials = bsc(0.05), 24, 20_000
    rep = run_simulation(SimConfig(model=model, n=n, rate=0.5, trials=trials, mode="linear",
                                   abandon_after=budget, seed=35))
    exact = linear_code_exact(build_linear_codebook(n, 12, 35), model, budget)
    assert exact.abandon > 0 if budget else exact.abandon == 0
    for rate, p in ((rep.block_error_rate, 1 - exact.correct),
                    (rep.abandonment_rate, exact.abandon)):
        assert abs(rate - p) <= 4 * math.sqrt(p * (1 - p) / trials)


@pytest.mark.parametrize(
    "model, n, budget",
    [(bsc(0.05), 20, None), (bsc(0.05), 20, 40), (BinaryMarkovNoise(0.05, 0.3), 24, 100)],
)
def test_linear_trials_tally_as_end_to_end_decodes(model, n, budget):
    # a linear trial decodes its noise on the all-zero codeword; the end-to-end
    # trial it stands for encodes the drawn info word, decodes y = c + z and
    # inverts the decoding, on the same random stream, and tallies the same
    cb, trials, seed = build_linear_codebook(n, n // 2, seed=3), 150, np.random.SeedSequence(9)
    rng, expected = np.random.default_rng(seed), simulator._Tally()
    for _ in range(trials):
        info = tuple(rng.integers(0, 2, size=cb.k).tolist())
        z = sample_noise_with(model, n, rng).tolist()
        res = grand_decode(cb, tuple(c ^ e for c, e in zip(cb.encode(info), z)), model, budget)
        abandoned = res.status is DecodeStatus.ABANDONED
        expected.record(res.queries, abandoned or cb.decode_to_info(res.decoded) != info,
                        abandoned)
    assert 0 < expected.errors - expected.abandons < trials
    assert simulator._codebook_worker((cb, model, trials, budget, seed)) == expected


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


def test_auto_abandonment_rejects_non_binary_alphabet():
    cfg = SimConfig(
        model=IIDNoise((0.9, 0.05, 0.05)), n=20, rate=0.5, trials=10,
        mode="race", p_abandon=0.01,
    )
    with pytest.raises(ValueError, match="binary"):
        run_simulation(cfg)


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


@pytest.mark.parametrize(
    "workers, trials, pool",
    [(6, 2, [(1, (0,)), (1, (1,))]), (3, 7, [(3, (0,)), (2, (1,)), (2, (2,))]),
     (3, 1, None), (1, 5, None)],
)
def test_a_run_forks_one_process_per_chunk_with_trials(monkeypatch, workers, trials, pool):
    # (trials, seed spawn key) per pooled job; a lone chunk runs in this process
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            asked.append((self.max_workers, [(j[3], j[5].spawn_key) for j in jobs]))
            return map(fn, jobs)

    monkeypatch.setattr(simulator, "ProcessPoolExecutor", InProcessPool)
    cfg = SimConfig(model=bsc(0.05), n=16, rate=0.5, trials=trials, workers=workers)
    rep = run_simulation(cfg)
    assert asked == ([] if pool is None else [(len(pool), pool)])
    assert sum(rep.query_histogram.values()) == trials


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


def test_run_race_rejects_other_modes():
    for mode in ("explicit", "linear"):
        cfg = SimConfig(model=bsc(0.1), n=8, rate=0.5, trials=50, mode=mode, seed=0)
        with pytest.raises(ValueError, match="race"):
            run_race(cfg)


RACE_CONFIGS = [
    dict(model=bsc(0.01), n=75, rate=0.72, trials=2000, seed=3),
    dict(model=bsc(0.01), n=75, rate=0.72, trials=2000, seed=4, abandon_after=64026),
    dict(model=bsc(0.01), n=75, rate=0.72, trials=2000, seed=5, p_abandon=0.01),
    # above capacity: U <= G in most trials, so most take the exact path
    dict(model=bsc(0.1), n=10, rate=0.9, trials=2000, seed=6),
    dict(model=BinaryMarkovNoise(0.05, 0.3), n=24, rate=0.5, trials=2000, seed=7),
    dict(model=IIDNoise((0.8, 0.15, 0.05)), n=12, rate=0.5, trials=2000, seed=8),
    # M_n = 2^1350 lies beyond float range
    dict(model=bsc(0.01), n=1500, rate=0.9, trials=200, seed=9),
]


@pytest.mark.parametrize("kwargs", RACE_CONFIGS)
def test_race_matches_exact_oracle(kwargs, monkeypatch):
    cfg = SimConfig(mode="race", **kwargs)
    expected = report_to_json(run_race_exact(cfg))
    exact, make = [], simulator._hit_time

    def counting(hit):
        hit_time = make(hit)

        def counted(g, v):
            u = hit_time(g, v)
            if u < math.inf:
                exact.append(u)
            return u

        return counted

    monkeypatch.setattr(simulator, "_hit_time", counting)
    rep = run_race(cfg)
    assert report_to_json(rep) == expected
    # an error is U <= G, which only an exact U can show, by float or by
    # sample_u_exact, or an abandonment
    errors = round(rep.block_error_rate * cfg.trials)
    assert len(exact) >= errors - round(rep.abandonment_rate * cfg.trials)
    assert len(exact) < cfg.trials


def test_race_matches_exact_oracle_two_workers():
    cfg = SimConfig(
        model=bsc(0.01), n=75, rate=0.72, trials=2000, mode="race", seed=10, workers=2
    )
    assert report_to_json(run_race(cfg)) == report_to_json(run_race_exact(cfg))


def _v_for_u(hit, u):
    """A float v whose exact hit time is near u: the survival level at which
    T (1 - v^(1/M)) = u - 1/2."""
    with mpmath.workdps(hit.n + 40):
        total = mpmath.mpf(hit.alphabet_size) ** hit.n
        return float((1 - (mpmath.mpf(u) - 0.5) / total) ** hit.M_n)


@pytest.fixture
def hit_time_or_defer(monkeypatch):
    """``simulator._hit_time`` with ``sample_u_exact`` stubbed out, so that None
    marks a trial the floats defer to it."""
    monkeypatch.setattr(simulator, "sample_u_exact", lambda hit, v: None)
    return simulator._hit_time


@pytest.mark.parametrize("n, rate", [(75, 0.2), (100, 0.4), (1500, 0.9)])
def test_screen_defers_at_near_ties(n, rate, hit_time_or_defer):
    hit = UHitModel(n=n, rate=rate)
    hit_time = hit_time_or_defer(hit)
    rng = np.random.default_rng(0)
    # T / M = 2^(n (1 - R)): hit times from 2^-4 to 2^2 times that, all > 2^50
    for e in range(round(n * (1 - rate)) - 4, round(n * (1 - rate)) + 3):
        v = _v_for_u(hit, int(2.0**e * (1 + rng.random())))
        u = sample_u_exact(hit, v)
        assert u > 2**50
        for g in (u - 1, u, u + 1):
            assert hit_time(g, v) is None
        assert hit_time(u // 2, v) == math.inf


@pytest.mark.parametrize("n, rate", [(1096, 0.909), (1103, 0.9065)])
def test_screen_defers_where_t_over_m_is_subnormal(n, rate, hit_time_or_defer):
    """v = 1 - 2^-53, the float nearest 1, and 2^969 < M < 2^1000: t / M is subnormal,
    with 21 bits or more, so its log2 can be off by 2^-21, past the screen's margin.
    The screen must not claim U > U."""
    hit = UHitModel(n=n, rate=rate)
    hit_time, v = hit_time_or_defer(hit), 1 - 2.0**-53
    u = sample_u_exact(hit, v)
    assert 2**969 < hit.M_n < 2**1000 < 2**n
    assert hit_time(u, v) is None
    assert hit_time(u // 2, v) == math.inf


@pytest.mark.parametrize(
    "n, rate, pairs", [(10, 0.9, 25_000), (24, 0.5, 25_000), (75, 0.72, 25_000),
                       (75, 0.2, 25_000), (1500, 0.9, 200)],
)
def test_screen_never_disagrees_with_exact_sample(n, rate, pairs, hit_time_or_defer):
    hit = UHitModel(n=n, rate=rate)
    hit_time = hit_time_or_defer(hit)
    total = 2**n
    rng = np.random.default_rng(n)
    decided = 0
    for _ in range(pairs):
        v = rng.random()
        while v <= 0.0:
            v = rng.random()
        # g at 2^shift times the float estimate of the hit time, |shift| from
        # 1e-14 to 1, or anywhere in 1..min(T, 2^62)
        t = -math.log(v)
        est = math.log2(t) - math.log2(hit.M_n) if n > 1000 else math.log2(
            -math.expm1(-t / hit.M_n))
        if rng.random() < 0.8:
            shift = rng.choice((-1, 1)) * 10.0 ** rng.uniform(-14, 0)
            g = min(max(int(mpmath.mpf(2) ** (n + est + shift)), 1), total)
        else:
            g = int(rng.integers(1, min(total, 2**62), endpoint=True))
        if hit_time(g, v) == math.inf:
            decided += 1
            assert sample_u_exact(hit, v) > g
    assert decided > pairs // 4


@pytest.mark.parametrize(
    "hit", [UHitModel(n=10, rate=0.9), UHitModel(n=75, rate=0.72), UHitModel(n=75, rate=0.4),
            UHitModel(n=12, rate=0.5, alphabet_size=3), UHitModel(n=40, rate=0.5, alphabet_size=3),
            UHitModel(n=60, rate=0.1)],
    ids=repr,
)
def test_certified_hit_time_equals_exact_sample_or_defers(hit, hit_time_or_defer):
    """v within 512 ulps of the level where T (1 - v^(1/M)) is an integer u, for u
    from 2^-6 to 2^4 times T / M: below 2^47 as well as past 2^50, and with T = 3^12
    and 3^40, no power of two, the second past 2^53, where float(T) rounds. With g = T,
    U > g is never the answer, so the floats give U itself, which must be
    ``sample_u_exact``'s, or defer (None)."""
    hit_time = hit_time_or_defer(hit)
    total = hit.alphabet_size**hit.n
    rng = np.random.default_rng(hit.n)
    certified = deferred = 0
    for _ in range(400):
        u = min(max(round(total / hit.M_n * 2.0 ** rng.uniform(-6, 4)), 1), 2**52 - 1)
        v0 = _v_for_u(hit, u + 0.5)  # T (1 - v0^(1/M)) = u, up to v0's rounding
        v = v0 + int(rng.integers(-512, 512, endpoint=True)) * math.ulp(v0)
        exact = sample_u_exact(hit, v)
        answer = hit_time(total, v)
        if answer is None:
            deferred += 1
        else:
            certified += 1
            assert answer == exact and exact < 2**47
    # every hit time here lies past 2^47 at T / M = 2^54; elsewhere both answers occur
    assert deferred > 0 and (certified == 0 if hit.n == 60 else certified > 0)


@pytest.mark.parametrize(
    # data_dict() as it was when explicit words were stored as int tuples, and
    # as it was when the report schema was written out field by field
    "cfg, expected",
    [
        (SimConfig(model=bsc(0.05), n=16, rate=0.5, trials=300, mode="explicit", seed=7),
         '{"abandonment_rate": 0.0, "avg_queries_per_bit": 1.5045833333333334, '
         '"block_error_ci95": [0.05482937290488356, 0.11850396042844978], '
         '"block_error_rate": 0.08666666666666667, "config": {"abandon_after": null, '
         '"mode": "explicit", "model": "IIDNoise(pmf=(0.95, 0.05))", "n": 16, '
         '"p_abandon": null, "rate": 0.5, "seed": 7, "trials": 300, "workers": 1}, '
         '"query_histogram": {"0": 124, "1": 14, "2": 35, "3": 50, "4": 33, "5": 17, '
         '"6": 14, "7": 8, "8": 4, "9": 1}, "schema_version": 1, '
         '"success_rate": 0.9133333333333333, "trials": 300}'),
        (SimConfig(model=IIDNoise((0.8, 0.15, 0.05)), n=8, rate=0.5, trials=300,
                   mode="explicit", seed=5),
         '{"abandonment_rate": 0.0, "avg_queries_per_bit": 3.74125, '
         '"block_error_ci95": [0.2863948062217848, 0.39360519377821523], '
         '"block_error_rate": 0.34, "config": {"abandon_after": null, '
         '"mode": "explicit", "model": "IIDNoise(pmf=(0.8, 0.15, 0.05))", "n": 8, '
         '"p_abandon": null, "rate": 0.5, "seed": 5, "trials": 300, "workers": 1}, '
         '"query_histogram": {"0": 59, "1": 31, "2": 40, "3": 51, "4": 51, "5": 27, '
         '"6": 20, "7": 18, "8": 3}, "schema_version": 1, '
         '"success_rate": 0.6599999999999999, "trials": 300}'),
        # the resolved budgets are echoed as abandon_after
        (SimConfig(model=bsc(0.05), n=24, rate=0.5, trials=300, mode="race", seed=11,
                   p_abandon=0.01),
         '{"abandonment_rate": 0.0, "avg_queries_per_bit": 9.712222222222222, '
         '"block_error_ci95": [0.05482937290488356, 0.11850396042844978], '
         '"block_error_rate": 0.08666666666666667, "config": {"abandon_after": 436496, '
         '"mode": "race", "model": "IIDNoise(pmf=(0.95, 0.05))", "n": 24, '
         '"p_abandon": 0.01, "rate": 0.5, "seed": 11, "trials": 300, "workers": 1}, '
         '"query_histogram": {"0": 87, "1": 7, "10": 14, "11": 7, "12": 2, "2": 15, '
         '"3": 40, "4": 42, "5": 10, "6": 19, "7": 32, "8": 13, "9": 12}, '
         '"schema_version": 1, "success_rate": 0.9133333333333333, "trials": 300}'),
        (SimConfig(model=bsc(0.05), n=20, rate=0.5, trials=200, mode="linear", seed=12,
                   abandon_after=40),
         '{"abandonment_rate": 0.195, "avg_queries_per_bit": 0.68275, '
         '"block_error_ci95": [0.15354995837025448, 0.2664500416297455], '
         '"block_error_rate": 0.21, "config": {"abandon_after": 40, '
         '"mode": "linear", "model": "IIDNoise(pmf=(0.95, 0.05))", "n": 20, '
         '"p_abandon": null, "rate": 0.5, "seed": 12, "trials": 200, "workers": 1}, '
         '"query_histogram": {"0": 77, "1": 10, "2": 13, "3": 30, "4": 28, "5": 42}, '
         '"schema_version": 1, "success_rate": 0.79, "trials": 200}'),
    ],
    ids=["binary", "ternary", "race-p-abandon", "linear-abandon-after"],
)
def test_explicit_simulation_data_is_unchanged(cfg, expected):
    assert json.dumps(run_simulation(cfg).data_dict(), sort_keys=True) == expected
