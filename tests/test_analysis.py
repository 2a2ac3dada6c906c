import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from grandkit import analysis as an
from grandkit.analysis import _rho_bracket, rate_function_value
from grandkit.guesswork import iter_guesses
from grandkit.noise_models import (
    BinaryMarkovNoise,
    IIDNoise,
    _renyi_log_sum,
    bsc,
    min_entropy_rate,
    renyi_entropy_rate,
    shannon_entropy_rate,
)

from .oracles import (
    bsc_success_prob_fine_exact,
    error_exponent_infimum,
    expected_queries_fine_exact,
    grand_rate_function,
    rate_function_I_U,
    supercritical_threshold_crossing,
)

SMOOTH_MODELS = [bsc(0.1), bsc(0.01), BinaryMarkovNoise(0.002, 0.2)]


def test_hit_rate_function_values():
    assert rate_function_I_U(0.2, 0.8) == pytest.approx(0.0)
    assert rate_function_I_U(0.2, 0.0) == pytest.approx(0.8)
    assert rate_function_I_U(0.8, 0.5) == math.inf


def test_capacity_spot_value():
    assert an.capacity(bsc(0.1)) == pytest.approx(0.531, abs=1e-3)


def test_error_exponent_zero_at_and_above_capacity():
    m = bsc(0.1)
    cap = an.capacity(m)
    assert an.error_exponent(m, cap) == 0.0
    assert an.error_exponent(m, 0.9) == 0.0
    # uniform noise has zero capacity and no critical point
    for R in np.linspace(0.0, 1.0, 101):
        assert an.error_exponent(bsc(0.5), float(R)) == 0.0


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
        b = error_exponent_infimum(model, float(R))
        assert a == pytest.approx(b, abs=1e-6)


def test_error_exponent_without_critical_point():
    # x* is None here while capacity is about 2.9e-10: the infimum sits at
    # the right edge 1 - R
    m = bsc(0.5 - 1e-5)
    assert an.critical_rate_x_star(m) is None
    R = 1e-10
    assert R < an.capacity(m)
    assert an.error_exponent(m, R) == pytest.approx(
        error_exponent_infimum(m, R), abs=1e-6
    )


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


def test_error_exponent_pair_rule():
    m = bsc(0.1)
    cap = an.capacity(m)
    eps, eps_ab = an.error_exponent_pair(m, 0.2, 0.05)
    assert eps == an.error_exponent(m, 0.2)
    assert eps_ab == an.grandab_error_exponent(m, 0.2, 0.05) <= eps
    # no margin, or at and above capacity: no abandonment exponent
    assert an.error_exponent_pair(m, 0.2, None) == (eps, None)
    assert an.error_exponent_pair(m, cap, 0.05) == (0.0, None)
    assert an.grandab_error_exponent(m, cap, 0.05) == 0.0
    with pytest.raises(ValueError, match="delta must be positive"):
        an.error_exponent_pair(m, 0.2, 0.0)


@pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, math.inf])
def test_delta_must_be_positive_and_finite(delta):
    m = bsc(0.1)
    for R in (0.2, 0.9):  # below and above capacity
        with pytest.raises(ValueError, match="delta must be positive"):
            an.error_exponent_pair(m, R, delta)
        with pytest.raises(ValueError, match="delta must be positive"):
            an.complexity_exponents(m, R, delta)
        with pytest.raises(ValueError, match="delta must be positive"):
            an.grandab_error_exponent(m, R, delta)


def test_nan_rate_raises():
    m = bsc(0.1)
    calls = [
        lambda: an.error_exponent(m, math.nan),
        lambda: an.success_exponent(m, math.nan),
        lambda: an.error_exponent_pair(m, math.nan, None),
        lambda: an.error_exponent_pair(m, math.nan, 0.1),
        lambda: an.grandab_error_exponent(m, math.nan, 0.1),
        lambda: an.complexity_exponents(m, math.nan),
        lambda: an.supercritical_threshold_y_star(m, math.nan),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="R must be a number"):
            call()


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
    below = grand_rate_function(m, 0.3, grid)
    for x, v in zip(grid, below):
        if x > 0.7:
            assert v == math.inf
        else:
            assert v == pytest.approx(rate_function_value(m, float(x)), abs=1e-9)
    cut = 1.0 - 0.9
    above = grand_rate_function(m, 0.9, grid)
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
    vals = np.array(grand_rate_function(m, R, grid))
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
    for m, R in [(bsc(0.1), 0.7), (BinaryMarkovNoise(0.05, 0.3), 0.8),
                 (IIDNoise((0.7, 0.2, 0.1)), 0.5), (IIDNoise((0.6, 0.4, 0.0)), 0.3)]:
        y = an.supercritical_threshold_y_star(m, R)
        ys = np.linspace(1e-4, 1.0 - R - 1e-4, 800)
        ok = [float(v) for v in ys if rate_function_value(m, float(v)) < 1.0 - R - float(v)]
        assert y == pytest.approx(max(ok), abs=1e-3)


@pytest.mark.parametrize(
    "m",
    [bsc(0.01), bsc(0.1), bsc(0.45), BinaryMarkovNoise(0.002, 0.2),
     BinaryMarkovNoise(0.05, 0.3), BinaryMarkovNoise(0.6, 0.7), IIDNoise((0.7, 0.2, 0.1))],
)
def test_supercritical_threshold_matches_crossing_oracle(m):
    found = 0
    for R in np.linspace(0.01, 0.99, 99):
        y = an.supercritical_threshold_y_star(m, float(R))
        ref = supercritical_threshold_crossing(m, float(R))
        assert (y is None) == (ref is None)
        if ref is not None:
            found += 1
            assert y == pytest.approx(ref, abs=1e-11)
    assert found >= 10


@pytest.mark.parametrize("R", [0.001, 0.1, 0.3])
def test_supercritical_threshold_at_the_support_edge(R):
    # symbol 2 never occurs: below R = 0.35, I_N stays under I_U until it
    # turns infinite at log_3 2, the growth rate of the support
    m = IIDNoise((0.6, 0.4, 0.0))
    y = an.supercritical_threshold_y_star(m, R)
    assert y == pytest.approx(math.log(2) / math.log(3), abs=1e-15)
    assert y == pytest.approx(supercritical_threshold_crossing(m, R), abs=1e-8)


@pytest.mark.parametrize(
    "m",
    [bsc(0.1), bsc(0.45), BinaryMarkovNoise(0.05, 0.3), IIDNoise((0.4, 0.4, 0.2))],
)
def test_supercritical_threshold_ulps_below_the_min_entropy_corner(m):
    # -L' reaches 1 - R only within float error: the root search must still
    # end, near y* at a rate 1e-12 further in, where the oracle is still well
    # conditioned (at some of these R it reads 0 for the tied pmf)
    R = 1.0 - min_entropy_rate(m)
    ref = supercritical_threshold_crossing(m, R - 1e-12)
    for _ in range(40):
        R = math.nextafter(R, 0.0)
        assert an.supercritical_threshold_y_star(m, R) == pytest.approx(ref, abs=1e-9)


def test_supercritical_threshold_where_the_root_search_levels_off():
    # five tied most likely symbols: the float -L' levels off one ulp above H_min, so
    # one ulp below R = 1 - H_min the bracket stops with -L' still above 1 - R, and y*
    # is the Legendre point there, the limit log_6 5 of x(rho), as the root gives further in
    m = IIDNoise((0.18,) * 5 + (0.1,))
    R = math.nextafter(1.0 - min_entropy_rate(m), 0.0)
    assert _rho_bracket(lambda rho: -_renyi_log_sum(m, rho)[1] - (1.0 - R))[1] > 0.0
    y = an.supercritical_threshold_y_star(m, R)
    assert y == pytest.approx(math.log(5) / math.log(6), abs=1e-13)
    assert y == pytest.approx(an.supercritical_threshold_y_star(m, R - 1e-12), abs=1e-9)


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


def test_select_delta_rejects_zero_probability_symbol():
    # noise that is always 0 has I_N = +inf past x = 0: no margin meets a target
    with pytest.raises(ValueError, match="positive probability"):
        an.select_delta(IIDNoise((1.0, 0.0)), 75, 0.01, 0.01)


@pytest.mark.parametrize("p", [0.0, -0.01, 1.5])
def test_select_delta_rejects_p_outside_unit_interval(p):
    with pytest.raises(ValueError, match=r"p must lie in \(0, 1\]"):
        an.select_delta(bsc(0.01), 75, 0.01, p)


def test_select_delta_rejects_non_binary_alphabet():
    # the target exponent is in bits while a ternary entropy rate is in trits
    with pytest.raises(ValueError, match="binary"):
        an.select_delta(IIDNoise((0.9, 0.05, 0.05)), 20, 0.01, 0.1)


UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
SELECT_DELTA_ERRORS = re.compile(
    r"target exponent \S+ exceeds the rate function's range"
    r"|abandonment target gives a non-positive margin"
)


@given(
    model=st.one_of(st.builds(bsc, UNIT), st.builds(BinaryMarkovNoise, UNIT, UNIT)),
    n=st.integers(min_value=1, max_value=5000),
    p_abandon=UNIT,
    p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
# the product p_abandon * p n underflows; t lies below the float error of I_N(H) = 0;
# a Markov chain whose a * b underflows
@example(bsc(0.5 - 1e-9), 1, 1e-300, 1e-300)
@example(bsc(0.3), 75, 1 - 1e-15, 1.0)
@example(BinaryMarkovNoise(0.8693739787270164, 0.9521247473822373), 75, 1 - 1e-15, 1.0)
@example(BinaryMarkovNoise(3.1383938809418802e-167, 1.3003309306564163e-205), 75, 0.18, 1.0)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_select_delta_gives_a_margin_or_a_documented_error(model, n, p_abandon, p):
    try:
        delta = an.select_delta(model, n, p_abandon, p)
    except ValueError as e:
        assert SELECT_DELTA_ERRORS.fullmatch(str(e)), str(e)
    else:
        assert math.isfinite(delta) and delta > 0.0


def test_block_error_fine_headline_values():
    assert 1.0 - an.bsc_success_prob_fine(75, 0.72, 0.01) == pytest.approx(
        3.15e-3, rel=0.05
    )
    assert 1.0 - an.bsc_success_prob_fine(700, 0.965, 1e-4) == pytest.approx(
        4.69e-5, rel=0.05
    )


@pytest.mark.parametrize(
    "n, R, p",
    [(20, 0.5, 0.1), (30, 0.7, 0.05), (25, 0.3, 0.2), (75, 0.72, 0.01), (700, 0.965, 1e-4),
     (100, 0.3, 0.1), (200, 0.3, 0.1), (400, 0.3, 0.1)],
)
def test_block_error_matches_the_scaled_precision_oracle(n, R, p):
    """The oracle takes differences of e^(-cl) at log10(1/c) + 80 digits, the
    library sums closed forms at 2 log10(1/c) + 60; each returns the nearest
    float to a value within 1e-50 of the other's. So the two floats are equal
    unless that value lies within 1e-50 of a rounding boundary, and 1 - P
    agrees to 1e-12 relative even at n = 400, where 1 - P = 1.2e-8 and one
    float step would move it by 1e-8. A float sum of the same layers read 0.38
    at n = 200, where 1 - P = 2.5e-5."""
    fine = 1.0 - an.bsc_success_prob_fine(n, R, p)
    assert fine == pytest.approx(1.0 - bsc_success_prob_fine_exact(n, R, p), rel=1e-12, abs=0)


def test_expected_queries_holds_at_three_times_its_digits():
    """BSC(0.1), n = 400, R = 0.3, where the closed form of each layer's
    sum j r^j subtracts terms of order 1/c^2 = 2^560. The same sum at three
    times the library's digits rounds to a float within 1e-12 relative of the
    library's, for the reason given above; at 60 digits it read 3.8e74
    queries per bit, against 5.7e73."""
    n, R, p = 400, 0.3, 0.1
    dps = 3 * (math.ceil(2 * n * (1 - R) * math.log10(2)) + 60)
    assert an.expected_queries_fine(n, R, p) == pytest.approx(
        expected_queries_fine_exact(n, R, p, dps), rel=1e-12, abs=0)


def test_block_error_slopes_approach_the_error_exponent():
    """BSC(0.1), R = 0.3: the slopes (log2 P(n) - log2 P(2n)) / n of the block
    error P(n) = 1 - ``bsc_success_prob_fine`` over n = 50, 100, 200 lie above
    eps(R) by (beta +- L) / n, so the gap shrinks like 1/n. The bound, from
    the polynomial prefactor and not from observed slopes:
    - R lies above the critical rate, so eps(R) = D(kappa || p) with
      H(kappa) = 1 - R, and the error is the noise weight's tail past the
      layer where c l_k reaches 1.
    - That layer's mass has prefactor n^(-1/2), and c l_k carries one more
      n^(-1/2), which moves the crossing weight by log2(n) / (2 n H') and
      multiplies P by n^(-D'/(2H')), with D' and H' the slopes of D and H at
      kappa. So P(n) = Theta(n^(-beta) 2^(-n eps)) with beta = (1 + D'/H')/2,
      and D'/H' = |eps'(R)|.
    - The Theta factor is periodic in where the crossing falls between two
      layers. Moving it by t layers scales the terms past it by 2^(-D' t) and
      those before it by 2^((H' - D') t), so the log2 of that factor has slope
      within [-D', H' - D'] and spans at most L = max(D', H' - D') / 2.
    Slopes: n (s_n - eps) = beta + log2(F_n / F_2n) + o(1), within beta +- L
    as n grows; the o(1) term is not bounded here and must fit that slack.
    """
    p, R = 0.1, 0.3
    eps = an.error_exponent(bsc(p), R)

    def h2(k):
        return -k * math.log2(k) - (1 - k) * math.log2(1 - k)

    kappa = brentq(lambda k: h2(k) - (1 - R), p, 0.5, xtol=1e-15)
    d_slope = math.log2(kappa * (1 - p) / ((1 - kappa) * p))
    h_slope = math.log2((1 - kappa) / kappa)
    assert eps == pytest.approx(
        kappa * math.log2(kappa / p) + (1 - kappa) * math.log2((1 - kappa) / (1 - p)), rel=1e-9)
    beta, L = (1 + d_slope / h_slope) / 2, max(d_slope, h_slope - d_slope) / 2
    block_error = {n: 1.0 - an.bsc_success_prob_fine(n, R, p) for n in (50, 100, 200, 400)}
    for n in (50, 100, 200):
        gap = (math.log2(block_error[n]) - math.log2(block_error[2 * n])) / n - eps
        assert beta - L <= n * gap <= beta + L


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


@pytest.mark.parametrize(
    "n, p, R, match",
    [(0, 0.01, 0.5, "n must be >= 1"), (-1, 0.01, 0.5, "n must be >= 1"),
     (75, 1.5, 0.72, "p must"), (10, math.nan, 0.5, "p must"), (10, 0.0, 0.5, "p must"),
     (10, 1.0, 0.5, "p must"), (10, 0.1, 1.5, "R must"), (10, 0.1, math.nan, "R must"),
     (10, 0.1, 0.0, "R must")],
    ids=["0", "-1", "p=1.5", "p=nan", "p=0", "p=1", "R=1.5", "R=nan", "R=0"],
)
def test_fine_formulas_reject_empty_blocks(n, p, R, match):
    """The three BSC formulas share one check of n, p and R; the quantile
    takes no rate."""
    with pytest.raises(ValueError, match=match):
        an.bsc_success_prob_fine(n, R, p)
    with pytest.raises(ValueError, match=match):
        an.expected_queries_fine(n, R, p)
    if match != "R must":
        with pytest.raises(ValueError, match=match):
            an.bsc_guesswork_quantile(n, p, 0.99)


@pytest.mark.parametrize("p", [0.7, 0.9, 0.99])
def test_bsc_formulas_have_one_law_for_p_and_its_complement(p):
    """Complementing the noise maps each weight layer of BSC(p)'s guess order onto
    one of BSC(1 - p)'s of the same size and probability."""
    q = 1 - p
    assert an.bsc_success_prob_fine(75, 0.72, p) == pytest.approx(
        an.bsc_success_prob_fine(75, 0.72, q), rel=1e-12)
    assert an.expected_queries_fine(75, 0.72, p) == pytest.approx(
        an.expected_queries_fine(75, 0.72, q), rel=1e-12)
    assert an.expected_queries_fine(75, 0.72, p, max_queries=64026, conditional=True) == (
        pytest.approx(an.expected_queries_fine(75, 0.72, q, max_queries=64026, conditional=True),
                      rel=1e-12))
    for prob in (0.01, 0.5, 0.99):
        assert an.bsc_guesswork_quantile(20, p, prob) == an.bsc_guesswork_quantile(20, q, prob)


@pytest.mark.parametrize("prob", [0.1, 0.5, 0.9])
def test_guesswork_quantile_walks_the_guess_order_above_one_half(prob):
    n, p = 12, 0.8
    cdf = 0.0
    for rank, (_, lp) in enumerate(iter_guesses(bsc(p), n), 1):
        cdf += 2.0**lp
        if cdf >= prob:
            break
    assert an.bsc_guesswork_quantile(n, p, prob) == rank


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


def test_max_achievable_rate_raises_when_no_positive_rate_is_feasible():
    m = bsc(1e-2)
    # p n < 1: abandonment is allowed 0.0099 < p_block_target
    assert an.max_achievable_rate(m, 99, 1e-2, 1e-2, 1e-2) == 0.7005547510624023
    # p n >= 1: abandonment alone takes the whole target
    for n in (100, 101):
        with pytest.raises(ValueError, match=r"p_block_target = 0.01; .* p_abandon\*min\(p\*n, 1\) = 0.01"):
            an.max_achievable_rate(m, n, 1e-2, 1e-2, 1e-2)
    with pytest.raises(ValueError, match=r"p_block_target = 0.001; .* = 0.0099"):
        an.max_achievable_rate(m, 99, 1e-2, 1e-3, 1e-2)


def test_exponent_report_fields():
    m = bsc(0.1)
    rep = an.exponent_report(m, 0.3, delta=0.2)
    assert rep.capacity == pytest.approx(1.0 - rep.H)
    assert rep.epsilon > 0.0
    assert rep.s == 0.0
    assert rep.epsilon_AB is not None
    assert rep.epsilon_AB <= rep.epsilon + 1e-12
