"""The exact random-codebook reference (``oracles.random_codebook_exact``) against a
brute-force sum, the BSC fine formulas and race-mode simulation."""

import math
import sys

import mpmath
import pytest

from grandkit.analysis import (
    _bsc_success, bsc_success_prob_fine, expected_queries_fine, supercritical_threshold_y_star,
)
from grandkit.codebook import UHitModel
from grandkit.guesswork import _class_table
from grandkit.noise_models import BinaryMarkovNoise, IIDNoise, bsc
from grandkit.simulator import SimConfig, run_simulation

from .oracles import (
    bsc_success_prob_fine_exact, guesswork_tail, random_codebook_brute, random_codebook_exact,
)

EPS = sys.float_info.epsilon


@pytest.mark.parametrize(
    "model, n, budget",
    [
        (BinaryMarkovNoise(0.05, 0.3), 12, None),
        (BinaryMarkovNoise(0.05, 0.3), 12, 25),
        (IIDNoise((0.5, 0.3, 0.2)), 8, None),
        (IIDNoise((0.5, 0.3, 0.2)), 8, 200),
    ],
    ids=repr,
)
def test_exact_reference_equals_the_brute_force_sum(model, n, budget):
    """Every sequence and every rank summed directly: the two agree to 1e-12. A
    budget splits a tie group, so part of it is summed."""
    if budget is not None:
        assert budget not in {s for _, _, s in _class_table(model, n)[0]}
    exact = random_codebook_exact(model, n, 0.5, budget)
    brute = random_codebook_brute(model, n, 0.5, budget)
    assert exact[0] == pytest.approx(brute[0], rel=0, abs=1e-12)
    assert exact[1] == pytest.approx(brute[1], rel=1e-12, abs=0)
    if budget is not None:  # the budget bites: more errors, fewer queries
        unbudgeted = random_codebook_brute(model, n, 0.5)
        assert exact[0] > unbudgeted[0] and exact[1] < unbudgeted[1]


def _pmf_gap(p: float) -> float:
    """r: the largest relative gap between the oracle's BSC(p) pmf, the float pmf divided
    by its mpmath sum, and the formulas' (1 - p, p) in extended precision."""
    with mpmath.workdps(60):
        pmf = [mpmath.mpf(q) for q in bsc(p).pmf]
        exact = (1 - mpmath.mpf(p), mpmath.mpf(p))
        return float(max(abs(q / mpmath.fsum(pmf) / e - 1) for q, e in zip(pmf, exact)))


def test_exact_reference_matches_the_bsc_fine_formulas():
    """BSC(0.01), n = 75, R = 0.72, criterion 1's point, and BSC(0.1), R = 0.3,
    n = 100 and 200. The fine formulas take P(U > j) = exp(-c j) with
    c = 2^(-n(1 - R)), for the exact (1 - j/T)^M, so the tolerances are that
    law's error bounds, not the agreement seen:
    - exp(-Mx) - (1 - x)^M lies in [0, exp(-Mx) M x^2 / (1 - x)] at x = j/T.
      Weighted by P(G = j) it is at most max (cj)^2 exp(-cj) 2/M = 1.1/M over
      j <= T/2, and exp(-M/2) past it; weighted by P(G > j) <= 1 and summed, it
      is at most 2 (M/T^2) sum j^2 exp(-cj) <= 4.1/(cM), plus T exp(-M/2).
    - The formulas' c is not M/T = M_n 2^-n exactly: a gap d moves P by at most
      d/(e c) and the mean by at most d/c^2.
    - The formulas take 1 - p and p in extended precision, the oracle the float pmf
      divided by its sum (``_pmf_gap``): a relative gap r in either symbol moves each
      P(G = j) by at most n r relatively, so P by at most n r and the mean by at most
      n r sum f(j) <= n r (1 + T/(M + 1)).
    - Both formulas sum at 60 digits or more and round once to a float.
    """
    for n, R, p in [(75, 0.72, 0.01), (100, 0.3, 0.1), (200, 0.3, 0.1)]:
        model = bsc(p)
        M = UHitModel(n=n, rate=R).M_n
        T = 2**n
        with mpmath.workdps(60):
            c_fine = mpmath.mpf(2) ** (-mpmath.mpf(n) * (1 - mpmath.mpf(R)))
            c = mpmath.mpf(M) / T
            gap, c_min = float(abs(c_fine - c)), float(min(c_fine, c))
        r = _pmf_gap(p)
        tail = T * math.exp(-M / 2)
        p_law = 1.1 / M + math.exp(-M / 2) + gap / (math.e * c_min) + n * r
        mean_law = 4.1 / (c_min * M) + tail + gap / c_min**2 + n * r * (1 + T / (M + 1))

        error, queries = random_codebook_exact(model, n, R)
        # the law's error, and a float rounding of each side and of 1 - error
        assert abs((1 - error) - bsc_success_prob_fine_exact(n, R, p)[0]) <= p_law + 2 * EPS
        assert abs((1 - error) - bsc_success_prob_fine(n, R, p)) <= p_law + 2 * EPS
        fine = expected_queries_fine(n, R, p) * n
        assert abs(queries - fine) <= mean_law + 4 * EPS * fine


def test_exact_reference_block_error_is_positive_and_fine_at_n_800():
    """BSC(0.1), R = 0.3, n = 800, where the undivided float pmf, summing to 1 + 2.8e-17,
    gave P(error) = -1.83e-14. The bound takes the terms of the test above, but the pmf
    gap's is relative now: the oracle's masses sum to 1 as the formula's do, so its
    P(error) is sum P(G = j)(1 - f(j)) over non-negative terms, each moved by a factor
    within (1 -/+ r)^n, so by at most 2 n r times itself. The law's terms (1.1/M, exp(-M/2),
    d/(e c)) are absolute, the oracle's early stop adds under 1e-40, and each side rounds
    once to a float."""
    n, R, p = 800, 0.3, 0.1
    M = UHitModel(n=n, rate=R).M_n
    with mpmath.workdps(300):  # the gap d lies near 2^-800, below 60 digits of c
        c_fine = mpmath.mpf(2) ** (-mpmath.mpf(n) * (1 - mpmath.mpf(R)))
        c = mpmath.mpf(M) / 2**n
        law = float(1.1 / M + mpmath.exp(-M / 2) + abs(c_fine - c) / (mpmath.e * min(c_fine, c)))
    error, _ = random_codebook_exact(bsc(p), n, R)
    block_error = _bsc_success(n, R, p)[1]
    assert error > 0
    assert abs(error - block_error) <= 2 * n * _pmf_gap(p) * block_error + law + 1e-40 + EPS * error


def test_race_mode_lands_within_a_binomial_bound_of_the_exact_error():
    """Markov(0.05, 0.3), n = 48, R = 0.5: the paper's Markov noise past any stored
    codebook. 20 000 trials at seed 11, and a 4.5 sigma binomial bound (two-sided
    tail 7e-6), fixed before the first run."""
    model, n, R, trials = BinaryMarkovNoise(0.05, 0.3), 48, 0.5, 20_000
    exact, _ = random_codebook_exact(model, n, R)
    rep = run_simulation(SimConfig(model=model, n=n, rate=R, trials=trials, mode="race", seed=11))
    assert abs(rep.block_error_rate - exact) <= 4.5 * math.sqrt(exact * (1 - exact) / trials)


@pytest.mark.parametrize(
    "model, R", [(bsc(0.1), 0.7), (BinaryMarkovNoise(0.05, 0.3), 0.75)], ids=repr)
def test_wrong_stops_split_at_y_star_at_finite_n(model, R):
    """Above capacity, P(wrong | the decoder stops within B = floor(2^(n y)) queries)
    falls with n at y = y* - eta and rises at y* + eta, for eta = 0.1 and n = 24, 48, 96.

    With f(B) = P(U > B) = (1 - B/T)^M and P_err(B) GRANDAB's error at budget B, the
    decoder stops wrongly with P(U <= min(G, B)) = [P_err(B) - P(G > B)] + P(G > B)(1 - f(B))
    and rightly with P(G <= B) - [P_err(B) - P(G > B)]. Each doubling of n moves the log2
    odds of a wrong stop by:
    - below y*: about -n (1 - R - y - I_N(y)) + 1/2, the wrong stops near P(U <= B),
      2^-n(1 - R - y), and the right ones near P(G <= B), 2^-n I_N(y) / sqrt(n). At
      y* - 0.1 and n = 24 that is -1.1 bits (BSC) and -1.5 (Markov), twice that next.
    - above y*, here past 1 - R: about n I_N(1 - R) + 1/2, as U <= B is near certain, the
      wrong stops near the block error, and the right ones near P(G <= 2^(n(1 - R))),
      2^-n I_N(1 - R) / sqrt(n). At n = 24 that is +1.0 bits (BSC) and +0.67 (Markov).
    Where B falls inside a tie group moves P(G <= B) by a bounded factor; eta = 0.05 would
    leave the steps below y* at half the width for it."""
    y_star = supercritical_threshold_y_star(model, R)
    for eta in (-0.1, 0.1):
        wrong = []
        for n in (24, 48, 96):
            T, M = 2**n, UHitModel(n=n, rate=R).M_n
            B = math.floor(2.0 ** (n * (y_star + eta)))
            error, _ = random_codebook_exact(model, n, R, budget=B)
            beyond = guesswork_tail(model, n, B)
            with mpmath.workdps(n + 40):  # B/T lies far below 15 digits
                f_b = float((1 - mpmath.mpf(B) / T) ** M)
            wrong_stop = (error - beyond) + beyond * (1 - f_b)
            right_stop = (1 - beyond) - (error - beyond)
            wrong.append(wrong_stop / (wrong_stop + right_stop))
        steps = [b - a for a, b in zip(wrong, wrong[1:])]
        assert all(step * eta > 0 for step in steps), wrong
