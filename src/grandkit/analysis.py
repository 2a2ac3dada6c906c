"""Asymptotic and fine-grained performance analytics for guessing decoders.

Everything here is derived from two rate functions: I_N, the large-deviation
rate of the noise guesswork (see :mod:`.guesswork`), and I_U(x) = 1 - R - x,
the rate of the first accidental codeword hit. Their interplay yields error
and success exponents, complexity exponents, abandonment design rules, and --
for the binary symmetric channel -- a finite-blocklength approximation of the
block error probability and the expected query count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import mpmath
from scipy.optimize import brentq, minimize_scalar

from .guesswork import (
    RateFunctionTable,
    rate_function_I_N,
    rate_function_value,
    scgf_derivative,
)
from .noise_models import (
    NoiseModel,
    min_entropy_rate,
    renyi_entropy_rate,
    shannon_entropy_rate,
)

__all__ = [
    "ExponentReport",
    "capacity",
    "rate_function_I_U",
    "error_exponent",
    "error_exponent_piecewise",
    "success_exponent",
    "critical_rate_x_star",
    "grandab_error_exponent",
    "complexity_exponents",
    "grand_rate_function",
    "supercritical_threshold_y_star",
    "select_delta",
    "bsc_success_prob_fine",
    "expected_queries_fine",
    "bsc_guesswork_quantile",
    "max_achievable_rate",
]


def capacity(model: NoiseModel) -> float:
    """Channel capacity 1 - H for invertible additive noise, base |A|."""
    return 1.0 - shannon_entropy_rate(model)


def rate_function_I_U(R: float, x: float) -> float:
    """Rate function of the accidental-hit time: 1 - R - x on [0, 1-R]."""
    if not 0.0 < R < 1.0:
        raise ValueError("R must lie in (0, 1)")
    if 0.0 <= x <= 1.0 - R:
        return 1.0 - R - x
    return math.inf


def error_exponent(model: NoiseModel, R: float) -> float:
    """Block-error decay rate below capacity; 0 at and above capacity.

    Computed as the infimum of I_U(a) + I_N(a) over a in [H, 1-R].
    """
    H = shannon_entropy_rate(model)
    if R >= 1.0 - H:
        return 0.0
    lo, hi = H, 1.0 - R
    res = minimize_scalar(
        lambda a: (1.0 - R - a) + rate_function_value(model, a),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-10},
    )
    best = min(
        res.fun,
        (1.0 - R - lo) + rate_function_value(model, lo),
        (1.0 - R - hi) + rate_function_value(model, hi),
    )
    return max(float(best), 0.0)


def error_exponent_piecewise(model: NoiseModel, R: float) -> float:
    """Closed-form error exponent: linear in R at low rates, then the noise
    rate function evaluated at 1-R. Requires the critical point to exist."""
    x_star = critical_rate_x_star(model)
    if x_star is None:
        raise ValueError("model has no critical point; use error_exponent")
    if R >= 1.0 - shannon_entropy_rate(model):
        return 0.0
    if R < 1.0 - x_star:
        return 1.0 - R - renyi_entropy_rate(model, 0.5)
    return rate_function_value(model, 1.0 - R)


def success_exponent(model: NoiseModel, R: float) -> float:
    """Decay rate of the probability of correct decoding above capacity."""
    if R <= 1.0 - shannon_entropy_rate(model):
        return 0.0
    return rate_function_value(model, 1.0 - R)


def critical_rate_x_star(model: NoiseModel) -> float | None:
    """The guesswork growth rate at which I_N has unit slope.

    By Legendre duality this is the SCGF derivative at 1. Absent for
    degenerate (uniform) noise, where the rate function never steepens.
    """
    x = scgf_derivative(model, 1.0)
    if x >= 1.0 - 1e-9:
        return None
    return x


def grandab_error_exponent(model: NoiseModel, R: float, delta: float) -> float:
    """Error exponent with abandonment: the decoder loses whichever is slower,
    genuine errors or abandonments."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    H = shannon_entropy_rate(model)
    x = min(H + delta, 1.0)
    return min(error_exponent(model, R), rate_function_value(model, x))


def complexity_exponents(
    model: NoiseModel, R: float, delta: float | None = None
) -> tuple[float, float]:
    """Growth exponents of the expected query count, without and with
    abandonment."""
    H = shannon_entropy_rate(model)
    H_half = renyi_entropy_rate(model, 0.5)
    if R < 1.0 - H:
        grand = min(H_half, 1.0 - R)
    else:
        grand = 1.0 - R
    if delta is None:
        return grand, grand
    return grand, min(grand, H + delta)


def grand_rate_function(model: NoiseModel, R: float, x_grid) -> tuple[float, ...]:
    """Rate function of the decoder's termination time on ``x_grid``.

    Below capacity it coincides with the noise guesswork rate function up to
    x = 1-R; above capacity the accidental-hit branch can win, and the result
    need not be convex.
    """
    below = R < 1.0 - shannon_entropy_rate(model)
    out = []
    for x in x_grid:
        x = float(x)
        if x > 1.0 - R:
            out.append(math.inf)
        elif below:
            out.append(rate_function_value(model, x))
        else:
            out.append(min(rate_function_value(model, x), 1.0 - R - x))
    return tuple(out)


def supercritical_threshold_y_star(model: NoiseModel, R: float) -> float | None:
    """Largest query exponent below which early termination still implies a
    correct decoding with high probability.

    The crossing of I_N with I_U on (0, 1-R); exists whenever R < 1 - H_min.
    """
    h_min = min_entropy_rate(model)
    if R >= 1.0 - h_min:
        return None
    hi = 1.0 - R

    def f(y: float) -> float:
        return (1.0 - R - y) - rate_function_value(model, y)

    y_probe = hi - 1e-9
    if f(y_probe) >= 0.0:
        # I_N stays below I_U all the way; the supremum is the right edge.
        return hi
    return float(brentq(f, 0.0, y_probe, xtol=1e-12))


def select_delta(model: NoiseModel, n: int, p_abandon: float, p: float) -> float:
    """Abandonment margin delta(n) meeting a target abandonment probability.

    Solves I_N(H + delta) = -log(p_abandon * min(p n, 1)) / n (base |A|), so
    the abandonment probability is at most ``p_abandon`` times the expected
    uncoded block error probability.
    """
    if not 0.0 < p_abandon < 1.0:
        raise ValueError("p_abandon must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    target = p_abandon * min(p * n, 1.0)
    t = -math.log2(target) / n
    if t <= 0.0:
        raise ValueError("abandonment target requires a positive exponent")
    H = shannon_entropy_rate(model)
    if rate_function_value(model, 1.0) < t:
        raise ValueError(
            f"target exponent {t:.4g} exceeds the rate function's range"
        )
    x = float(
        brentq(
            lambda x: rate_function_value(model, x) - t,
            H,
            1.0,
            xtol=1e-12,
        )
    )
    delta = x - H
    if delta <= 0.0:
        raise ValueError("abandonment target gives a non-positive margin")
    return delta


@dataclass(frozen=True)
class ExponentReport:
    """All asymptotic quantities for one (model, rate) pair."""

    model_summary: str
    R: float
    H: float
    H_half: float
    H_min: float
    capacity: float
    x_star: float | None
    y_star: float | None
    epsilon: float
    s: float
    epsilon_AB: float | None
    grand_complexity_exp: float
    grandab_complexity_exp: float
    I_N: RateFunctionTable | None = None
    I_GRAND: tuple[float, ...] | None = None


def exponent_report(
    model: NoiseModel,
    R: float,
    delta: float | None = None,
    x_grid=None,
) -> ExponentReport:
    """Assemble every exponent-level quantity for one rate point."""
    H = shannon_entropy_rate(model)
    grand_exp, grandab_exp = complexity_exponents(model, R, delta)
    eps_ab = None
    if delta is not None and R < 1.0 - H:
        eps_ab = grandab_error_exponent(model, R, delta)
    table = rate_function_I_N(model, x_grid) if x_grid is not None else None
    i_grand = grand_rate_function(model, R, x_grid) if x_grid is not None else None
    return ExponentReport(
        model_summary=repr(model),
        R=R,
        H=H,
        H_half=renyi_entropy_rate(model, 0.5),
        H_min=min_entropy_rate(model),
        capacity=1.0 - H,
        x_star=critical_rate_x_star(model),
        y_star=supercritical_threshold_y_star(model, R),
        epsilon=error_exponent(model, R),
        s=success_exponent(model, R),
        epsilon_AB=eps_ab,
        grand_complexity_exp=grand_exp,
        grandab_complexity_exp=grandab_exp,
        I_N=table,
        I_GRAND=i_grand,
    )


# ---------------------------------------------------------------------------
# Finite-blocklength BSC formulas.
#
# Guesses against Bernoulli(p) noise proceed through Hamming-weight layers:
# ranks (l_{k-1}, l_k] all have probability q_k = p^k (1-p)^(n-k), where l_k
# counts strings of weight <= k. The accidental-hit time is approximately
# exponential with rate c = 2^(-n(1-R)). Every sum below exploits this layer
# structure so no loop ever touches individual ranks.
# ---------------------------------------------------------------------------


def _weight_layers(n: int, p):
    """Hamming-weight layers of Bernoulli(p) noise on n bits, k = 0..n.

    Yields (size, l_prev, l_k, q_k): the size = C(n, k) sequences of weight k
    hold ranks (l_prev, l_k], each with probability q_k = p^k (1-p)^(n-k),
    computed in the arithmetic of ``p`` (float or mpmath).
    """
    l_prev = 0
    for k in range(n + 1):
        size = comb(n, k)
        l_k = l_prev + size
        yield size, l_prev, l_k, p**k * (1 - p) ** (n - k)
        l_prev = l_k


def bsc_success_prob_fine(n: int, R: float, p: float) -> float:
    """P(correct decoding) for a BSC with a uniform random codebook.

    Layer-by-layer geometric sums of P(G = m) e^(-m c); the block error
    probability is one minus this value. Sub-second even at n in the
    hundreds because the weight loop terminates once survival underflows.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if not 0.0 < R < 1.0:
        raise ValueError("R must lie in (0, 1)")
    log2_c = -n * (1.0 - R)
    c = 2.0**log2_c
    denom = -math.expm1(-c)
    total = 0.0
    for _, l_prev, l_k, q_k in _weight_layers(n, p):
        log2_lo = math.log2(l_prev + 1) + log2_c
        if log2_lo > 11.0:
            break
        e_lo = math.exp(-(2.0**log2_lo))
        e_hi = math.exp(-(2.0 ** (math.log2(l_k + 1) + log2_c)))
        total += q_k * (e_lo - e_hi) / denom
    return total


def _bsc_guess_survival_mp(n: int, p, t: int):
    """P(G > t) under Bernoulli(p) noise, as an mpmath value (0 <= t <= 2^n)."""
    tail = mpmath.mpf(1)
    for size, _, l_k, q_k in _weight_layers(n, mpmath.mpf(p)):
        if t <= l_k:
            # within layer k: survival interpolates linearly in the rank
            return (tail - size * q_k) + (l_k - t) * q_k
        tail -= size * q_k
    return mpmath.mpf(0)


def bsc_guesswork_quantile(n: int, p: float, prob: float) -> int:
    """Smallest rank m with P(G <= m) >= prob, for Bernoulli(p) noise."""
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie in (0, 1)")
    with mpmath.workdps(60):
        target = mpmath.mpf(prob)
        cdf = mpmath.mpf(0)
        for size, l_prev, _, q_k in _weight_layers(n, mpmath.mpf(p)):
            layer_mass = size * q_k
            if cdf + layer_mass >= target:
                need = (target - cdf) / q_k
                return l_prev + int(mpmath.ceil(need))
            cdf += layer_mass
        return 2**n


def expected_queries_fine(
    n: int,
    R: float,
    p: float,
    max_queries: int | None = None,
    conditional: bool = False,
) -> float:
    """Per-bit expected query count E(min(G, U, T)) / n for a BSC.

    ``max_queries`` truncates at the abandonment budget T; ``conditional``
    additionally conditions on the decoder not abandoning (the mean query
    count of blocks that produce a decoding). Uses the exponential
    accidental-hit law and closed-form geometric sums per weight layer.
    """
    if conditional and max_queries is None:
        raise ValueError("conditional mean requires a query budget")
    total_seq = 2**n
    T = total_seq if max_queries is None else min(max_queries, total_seq)
    with mpmath.workdps(60):
        c = mpmath.mpf(2) ** (-mpmath.mpf(n) * (1 - mpmath.mpf(R)))
        r = mpmath.e**-c
        one_minus_r = -mpmath.expm1(-c)
        expectation = mpmath.mpf(0)
        tail = mpmath.mpf(1)  # P(W > k-1) entering layer k
        for size, a, l_k, q_k in _weight_layers(n, mpmath.mpf(p)):
            tail_k = tail - size * q_k  # P(W > k)
            b = min(l_k, T) - 1
            if a * c > mpmath.mpf(5000):
                break
            if b >= a:
                ra = r**a
                rb1 = r ** (b + 1)
                s0 = (ra - rb1) / one_minus_r
                s1 = (a * ra - (b + 1) * rb1) / one_minus_r + (
                    ra * r - rb1 * r
                ) / one_minus_r**2
                expectation += tail_k * s0 + q_k * (l_k * s0 - s1)
            tail = tail_k
            if l_k >= T:
                break
        if not conditional:
            return float(expectation / n)
        p_ab = _bsc_guess_survival_mp(n, p, T) * r**T
        if p_ab >= 1:
            raise ValueError("abandonment is certain; conditional mean undefined")
        cond = (expectation - T * p_ab) / (1 - p_ab)
        return float(cond / n)


def max_achievable_rate(
    model: NoiseModel, n: int, p: float, p_block_target: float, p_abandon: float
) -> float:
    """Largest code rate whose abandonment-aware error exponent keeps the
    predicted block error 2^(-n eps_AB(R)) at or below the target."""
    delta = select_delta(model, n, p_abandon, p)
    need = -math.log2(p_block_target) / n

    def f(R: float) -> float:
        return grandab_error_exponent(model, R, delta) - need

    cap = capacity(model)
    lo, hi = 1e-6, cap - 1e-9
    if f(lo) <= 0.0:
        return 0.0
    return float(brentq(f, lo, hi, xtol=1e-10))
