"""The exact random-codebook reference (``oracles.random_codebook_exact``) against a
brute-force sum, the BSC fine formulas and race-mode simulation."""

import math
import sys

import mpmath
import pytest

from grandkit.analysis import bsc_success_prob_fine, expected_queries_fine
from grandkit.codebook import UHitModel
from grandkit.guesswork import _class_table
from grandkit.noise_models import BinaryMarkovNoise, IIDNoise, bsc
from grandkit.simulator import SimConfig, run_simulation

from .oracles import bsc_success_prob_fine_exact, random_codebook_brute, random_codebook_exact

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
    - The formulas take 1 - p in extended precision, the model the float 1 - p:
      a relative gap r moves each P(G = j) by at most n r relatively, so P by at
      most n r and the mean by at most n r sum f(j) <= n r (1 + T/(M + 1)).
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
            r = float(abs(mpmath.mpf(model.pmf[0]) / (1 - mpmath.mpf(p)) - 1))
        tail = T * math.exp(-M / 2)
        p_law = 1.1 / M + math.exp(-M / 2) + gap / (math.e * c_min) + n * r
        mean_law = 4.1 / (c_min * M) + tail + gap / c_min**2 + n * r * (1 + T / (M + 1))

        error, queries = random_codebook_exact(model, n, R)
        # the law's error, and a float rounding of each side and of 1 - error
        assert abs((1 - error) - bsc_success_prob_fine_exact(n, R, p)[0]) <= p_law + 2 * EPS
        assert abs((1 - error) - bsc_success_prob_fine(n, R, p)) <= p_law + 2 * EPS
        fine = expected_queries_fine(n, R, p) * n
        assert abs(queries - fine) <= mean_law + 4 * EPS * fine


def test_race_mode_lands_within_a_binomial_bound_of_the_exact_error():
    """Markov(0.05, 0.3), n = 48, R = 0.5: the paper's Markov noise past any stored
    codebook. 20 000 trials at seed 11, and a 4.5 sigma binomial bound (two-sided
    tail 7e-6), fixed before the first run."""
    model, n, R, trials = BinaryMarkovNoise(0.05, 0.3), 48, 0.5, 20_000
    exact, _ = random_codebook_exact(model, n, R)
    rep = run_simulation(SimConfig(model=model, n=n, rate=R, trials=trials, mode="race", seed=11))
    assert abs(rep.block_error_rate - exact) <= 4.5 * math.sqrt(exact * (1 - exact) / trials)
