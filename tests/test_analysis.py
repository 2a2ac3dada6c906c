import math

import mpmath
import numpy as np
import pytest

from grandkit import analysis as an
from grandkit.guesswork import rate_function_value
from grandkit.noise_models import (
    BinaryMarkovNoise,
    bsc,
    min_entropy_rate,
    renyi_entropy_rate,
    shannon_entropy_rate,
)

from .oracles import bsc_success_prob_fine_exact

SMOOTH_MODELS = [bsc(0.1), bsc(0.01), BinaryMarkovNoise(0.002, 0.2)]


def test_hit_rate_function_values():
    assert an.rate_function_I_U(0.2, 0.8) == pytest.approx(0.0)
    assert an.rate_function_I_U(0.2, 0.0) == pytest.approx(0.8)
    assert an.rate_function_I_U(0.8, 0.5) == math.inf


def test_capacity_spot_value():
    assert an.capacity(bsc(0.1)) == pytest.approx(0.531, abs=1e-3)


def test_error_exponent_zero_at_and_above_capacity():
    m = bsc(0.1)
    cap = an.capacity(m)
    assert an.error_exponent(m, cap) == 0.0
    assert an.error_exponent(m, 0.9) == 0.0


def test_error_exponent_vanishes_approaching_capacity():
    for m in SMOOTH_MODELS:
        cap = an.capacity(m)
        assert an.error_exponent(m, cap - 1e-3) < 1e-3
        assert an.success_exponent(m, cap + 1e-3) < 1e-3


def test_error_exponent_linear_branch_at_low_rate():
    m = bsc(0.1)
    x_star = an.critical_rate_x_star(m)
    R = (1.0 - x_star) / 2.0
    expected = 1.0 - R - renyi_entropy_rate(m, 0.5)
    assert an.error_exponent(m, R) == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("model", SMOOTH_MODELS)
def test_error_exponent_matches_piecewise_form(model):
    cap = an.capacity(model)
    for R in np.linspace(0.01, cap - 1e-4, 100):
        a = an.error_exponent(model, float(R))
        b = an.error_exponent_piecewise(model, float(R))
        assert a == pytest.approx(b, abs=1e-6)


def test_success_exponent_values():
    m = bsc(0.1)
    cap = an.capacity(m)
    assert an.success_exponent(m, cap) == 0.0
    assert an.success_exponent(m, 1.0) == pytest.approx(
        min_entropy_rate(m), abs=1e-6
    )
    # strictly increasing beyond capacity
    grid = np.linspace(cap + 0.01, 1.0, 30)
    vals = [an.success_exponent(m, float(R)) for R in grid]
    assert all(x < y for x, y in zip(vals, vals[1:]))


@pytest.mark.parametrize("model", SMOOTH_MODELS)
def test_critical_point_identity(model):
    x_star = an.critical_rate_x_star(model)
    assert x_star is not None
    lhs = rate_function_value(model, x_star)
    rhs = x_star - renyi_entropy_rate(model, 0.5)
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_critical_point_absent_for_uniform_noise():
    assert an.critical_rate_x_star(bsc(0.5)) is None


def test_grandab_exponent_is_binding_minimum():
    m = bsc(0.01)
    R = 0.72
    delta = an.select_delta(m, 75, 1e-2, 0.01)
    eps = an.error_exponent(m, R)
    cap_term = rate_function_value(m, shannon_entropy_rate(m) + delta)
    assert an.grandab_error_exponent(m, R, delta) == pytest.approx(
        min(eps, cap_term)
    )


def test_grandab_exponent_limits():
    m = bsc(0.1)
    R = 0.2
    # huge margin: abandonment never binds
    assert an.grandab_error_exponent(m, R, 10.0) == pytest.approx(
        an.error_exponent(m, R)
    )
    # tiny margin: abandonment dominates and the exponent collapses
    assert an.grandab_error_exponent(m, R, 1e-6) < 1e-4


def test_complexity_exponents():
    m = bsc(0.1)
    h_half = renyi_entropy_rate(m, 0.5)
    cap = an.capacity(m)
    # low rate: guessing dominates
    g, _ = an.complexity_exponents(m, 0.1)
    assert g == pytest.approx(h_half)
    # above capacity: accidental hits dominate
    g, gab = an.complexity_exponents(m, 0.8, delta=1.0)
    assert g == pytest.approx(0.2)
    assert gab == pytest.approx(0.2)
    # small margin binds the abandoning decoder
    _, gab = an.complexity_exponents(m, 0.1, delta=0.01)
    assert gab == pytest.approx(shannon_entropy_rate(m) + 0.01)


def test_termination_rate_function_piecewise():
    m = bsc(0.1)
    cap = an.capacity(m)
    grid = np.linspace(0.0, 1.0, 41)
    below = an.grand_rate_function(m, 0.3, grid)
    for x, v in zip(grid, below):
        if x > 0.7:
            assert v == math.inf
        else:
            assert v == pytest.approx(rate_function_value(m, float(x)), abs=1e-9)
    cut = 1.0 - 0.9
    above = an.grand_rate_function(m, 0.9, grid)
    for x, v in zip(grid, above):
        if x > cut:
            assert v == math.inf
        else:
            assert v == pytest.approx(
                min(rate_function_value(m, float(x)), cut - float(x)), abs=1e-9
            )


def test_termination_rate_function_nonconvex_above_capacity():
    m = bsc(0.1)
    # above capacity 0.531 but below 1 - H_min, so the guesswork and
    # accidental-hit branches both appear and meet at a kink
    R = 0.7
    grid = np.linspace(0.0, 1.0 - R, 200)
    vals = np.array(an.grand_rate_function(m, R, grid))
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    assert second.min() < -1e-9


def test_supercritical_threshold():
    m = bsc(0.1)
    h_min = min_entropy_rate(m)
    cap = an.capacity(m)
    # beyond 1 - H_min the threshold cannot exist
    assert an.supercritical_threshold_y_star(m, 1.0 - h_min + 0.01) is None
    # between capacity and 1 - H_min: exists, below the entropy rate
    R = (cap + 1.0 - h_min) / 2.0
    y = an.supercritical_threshold_y_star(m, R)
    assert y is not None
    assert y < shannon_entropy_rate(m)
    # the crossing equates the two rate functions
    assert rate_function_value(m, y) == pytest.approx(1.0 - R - y, abs=1e-9)


def test_supercritical_threshold_grid_oracle():
    m = bsc(0.1)
    R = 0.7
    y = an.supercritical_threshold_y_star(m, R)
    ys = np.linspace(1e-4, 1.0 - R - 1e-4, 800)
    ok = [float(v) for v in ys if rate_function_value(m, float(v)) < 1.0 - R - float(v)]
    assert y == pytest.approx(max(ok), abs=1e-3)


def test_select_delta_roundtrip():
    m = bsc(0.01)
    delta = an.select_delta(m, 75, 1e-2, 0.01)
    H = shannon_entropy_rate(m)
    target = -math.log2(1e-2 * min(0.01 * 75, 1.0)) / 75
    assert rate_function_value(m, H + delta) == pytest.approx(target, abs=1e-6)
    assert delta > 0


def test_select_delta_shrinks_with_block_length():
    m = bsc(0.01)
    d1 = an.select_delta(m, 75, 1e-2, 0.01)
    d2 = an.select_delta(m, 150, 1e-2, 0.01)
    d3 = an.select_delta(m, 600, 1e-2, 0.01)
    assert d1 > d2 > d3


def test_select_delta_rejects_degenerate_abandonment_probability():
    # probability 1 would demand a zero exponent, i.e. no margin at all
    with pytest.raises(ValueError):
        an.select_delta(bsc(0.01), 100, 1.0, 1.0)


def test_select_delta_rejects_unattainable_target():
    # an absurdly small target probability needs an exponent beyond I_N's range
    with pytest.raises(ValueError):
        an.select_delta(bsc(0.3), 10, 1e-9, 0.3)


def test_block_error_fine_headline_values():
    assert 1.0 - an.bsc_success_prob_fine(75, 0.72, 0.01) == pytest.approx(
        3.15e-3, rel=0.05
    )
    assert 1.0 - an.bsc_success_prob_fine(700, 0.965, 1e-4) == pytest.approx(
        4.69e-5, rel=0.05
    )


def test_block_error_float_path_matches_extended_precision():
    for n, R, p in [(20, 0.5, 0.1), (30, 0.7, 0.05), (25, 0.3, 0.2)]:
        fast = an.bsc_success_prob_fine(n, R, p)
        slow = bsc_success_prob_fine_exact(n, R, p)
        assert fast == pytest.approx(slow, rel=1e-12)


def test_block_error_single_codeword_regime():
    # M_n = 1: the hit time is one uniform; compare with the direct sum
    # over ranks using the exact uniform survival
    n, p = 12, 0.1
    R = 0.05  # n R < 1 so the codebook holds a single word
    approx = an.bsc_success_prob_fine(n, R, p)
    with mpmath.workdps(40):
        pp = mpmath.mpf(p)
        T = 2**n
        direct = mpmath.mpf(0)
        prev_l = 0
        for k in range(n + 1):
            q = pp**k * (1 - pp) ** (n - k)
            l_k = prev_l + math.comb(n, k)
            for m in range(prev_l + 1, l_k + 1):
                direct += q * (1 - mpmath.mpf(m) / T)
            prev_l = l_k
        direct = float(direct)
    assert approx == pytest.approx(direct, rel=0.05)


def test_expected_queries_tiny_noise():
    # noise that is almost surely absent: the first guess ends the decode
    n = 20
    val = an.expected_queries_fine(n, 0.5, 1e-9)
    assert val == pytest.approx(1.0 / n, rel=1e-3)


def test_expected_queries_truncation_monotone():
    full = an.expected_queries_fine(75, 0.72, 0.01)
    capped = an.expected_queries_fine(75, 0.72, 0.01, max_queries=10_000)
    tighter = an.expected_queries_fine(75, 0.72, 0.01, max_queries=100)
    assert tighter < capped < full


def test_guesswork_quantile():
    n, p = 75, 0.01
    with mpmath.workdps(50):
        pp = mpmath.mpf(p)

        def cdf(m):
            prev_l = 0
            acc = mpmath.mpf(0)
            for k in range(n + 1):
                q = pp**k * (1 - pp) ** (n - k)
                l_k = prev_l + math.comb(n, k)
                if m <= l_k:
                    return acc + (m - prev_l) * q
                acc += math.comb(n, k) * q
                prev_l = l_k
            return acc

        t = an.bsc_guesswork_quantile(n, p, 0.99)
        assert cdf(t) >= 0.99
        assert cdf(t - 1) < 0.99


def test_expected_queries_headline_values():
    t1 = an.bsc_guesswork_quantile(75, 0.01, 1.0 - 1e-2)
    v1 = an.expected_queries_fine(75, 0.72, 0.01, max_queries=t1, conditional=True)
    assert v1 == pytest.approx(16.0, rel=0.2)
    t2 = an.bsc_guesswork_quantile(700, 1e-4, 1.0 - 1e-3)
    v2 = an.expected_queries_fine(700, 0.965, 1e-4, max_queries=t2, conditional=True)
    assert v2 == pytest.approx(0.172, rel=0.2)


def test_max_achievable_rate_fractions():
    m1 = bsc(1e-4)
    frac1 = an.max_achievable_rate(m1, 700, 1e-4, 1e-3, 1e-3) / an.capacity(m1)
    assert frac1 == pytest.approx(0.965, abs=0.01)
    m2 = bsc(1e-2)
    frac2 = an.max_achievable_rate(m2, 75, 1e-2, 1e-2, 1e-2) / an.capacity(m2)
    assert frac2 == pytest.approx(0.724, abs=0.01)


def test_exponent_report_fields():
    m = bsc(0.1)
    rep = an.exponent_report(m, 0.3, delta=0.2, x_grid=np.linspace(0, 1, 11))
    assert rep.capacity == pytest.approx(1.0 - rep.H)
    assert rep.epsilon > 0.0
    assert rep.s == 0.0
    assert rep.epsilon_AB is not None
    assert rep.epsilon_AB <= rep.epsilon + 1e-12
    assert len(rep.I_N.I_values) == 11
    assert len(rep.I_GRAND) == 11
