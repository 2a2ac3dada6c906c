"""Asymptotic and fine-grained performance analytics for guessing decoders.

Everything here is derived from two rate functions: I_N, the large-deviation
rate of the noise guesswork, and I_U(x) = 1 - R - x, the rate of the first
accidental codeword hit. I_N is computed here on its Legendre curve
(``rate_function_value``): the curve down to gamma, the linear segment
H_min - x below it, and +inf past the support edge. Their interplay yields
error and success exponents, complexity exponents, the abandonment margin
delta and the GRANDAB query budget ceil(2^(n(H + delta))) it sets, and --
for the binary symmetric channel -- a finite-blocklength approximation of the
block error probability and the expected query count.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import mpmath

from .noise_models import (
    IIDNoise,
    NoiseModel,
    _finite,
    _number,
    _positive_int,
    _renyi_log_sum,
    _unit,
    min_entropy_rate,
    renyi_entropy_rate,
    shannon_entropy_rate,
)

__all__ = [
    "ExponentReport",
    "rate_function_value",
    "capacity",
    "error_exponent",
    "error_exponent_pair",
    "success_exponent",
    "critical_rate_x_star",
    "grandab_error_exponent",
    "complexity_exponents",
    "supercritical_threshold_y_star",
    "select_delta",
    "abandonment_threshold",
    "bsc_success_prob_fine",
    "expected_queries_fine",
    "bsc_guesswork_quantile",
    "max_achievable_rate",
]


# ---------------------------------------------------------------------------
# The guesswork rate function I_N, the Legendre transform of the SCGF
# (1 + alpha) L(1/(1 + alpha)) of (1/n) log G (Christiansen and Duffy,
# "Guesswork, large deviations, and Shannon entropy", IEEE Trans. IT 2013;
# Arikan, "An inequality on guessing and its application to sequential
# decoding", IEEE Trans. IT 1996), traced on the Renyi parameter rho.
# ---------------------------------------------------------------------------


def _legendre_point(model: NoiseModel, rho: float) -> tuple[float, float]:
    """(x, I_N(x)) at ``rho`` >= 0 on the Legendre curve of L (the Renyi
    log-sum): x = L - rho L' and I_N(x) = -L' - x. x falls from the support
    edge L(0) at rho = 0 through H at rho = 1 towards gamma as rho grows."""
    L, slope = _renyi_log_sum(model, rho)
    x = L - rho * slope
    return x, -slope - x


def _rho_bracket(f) -> tuple[float, float]:
    """(rho, f(rho)) for ``f`` decreasing in rho with f(0) > 0: rho doubles
    from 1 until f(rho) <= 0, so [0, rho] brackets the root, or until f(rho)
    stops moving while still positive: the root then lies past float reach,
    on the limit rho -> inf."""
    rho, last = 1.0, None
    while (val := f(rho)) > 0.0 and val != last:
        rho, last = 2.0 * rho, val
    return rho, val


def _brentq(f, a: float, b: float, xtol: float, rtol: float = 2.0**-50, maxiter: int = 100):
    """A root of ``f`` on the sign-changing bracket [a, b] by Brent's method (Brent 1973):
    an exact port of scipy's ``brentq.c`` (defaults rtol = 4 eps, maxiter = 100), the same
    float operations in the same order, kept so that outputs stay byte-identical without
    scipy. ValueError for a same-sign bracket or a NaN value, RuntimeError past maxiter."""

    def call(x: float) -> float:
        if math.isnan(fx := f(x)):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre < 0.0) != (fcur < 0.0):  # true on the first pass; fpre is never 0
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisects below, unless a short step is tried
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; a zero denominator gives inf or NaN in C, so bisects
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # good short step
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


def rate_function_value(model: NoiseModel, x: float) -> float:
    """I_N(x), the rate function of (1/n) log G(noise): one root x(rho) = x.

    +inf outside [0, 1] and past the support edge L(0) = log_|A| #{p_i > 0};
    on the linear segment below gamma, where x(rho) stops moving before it
    reaches x, I_N = H_min - x. Float error below 0 near x = H reads 0. A NaN x raises.
    """
    if not 0.0 <= _number("x", x) <= 1.0:
        return math.inf
    edge, slope = model._edge
    if x >= edge:
        return max(0.0, -slope - edge) if x == edge else math.inf

    def f(rho: float) -> float:
        return _legendre_point(model, rho)[0] - x

    hi, val = _rho_bracket(f)
    if val > 0.0:
        return min_entropy_rate(model) - x
    return max(0.0, _legendre_point(model, _brentq(f, 0.0, hi, xtol=1e-15))[1])


def capacity(model: NoiseModel) -> float:
    """Channel capacity 1 - H for invertible additive noise, base |A|."""
    return 1.0 - shannon_entropy_rate(model)


def error_exponent(model: NoiseModel, R: float) -> float:
    """Block-error decay rate below capacity; 0 at and above capacity.

    The infimum of I_U(a) + I_N(a) over a in [H, 1-R] in closed form: it lies
    at x* (unit slope of I_N), giving 1 - R - H_{1/2}, below the critical rate
    1 - x*, and at the right edge, giving I_N(1 - R), from there (or, with no
    x*, everywhere) up to capacity.
    """
    if _number("R", R) >= capacity(model):
        return 0.0
    x_star = critical_rate_x_star(model)
    if x_star is not None and R < 1.0 - x_star:
        return 1.0 - R - renyi_entropy_rate(model, 0.5)
    return rate_function_value(model, 1.0 - R)


def success_exponent(model: NoiseModel, R: float) -> float:
    """Decay rate of the probability of correct decoding above capacity."""
    if _number("R", R) <= 1.0 - shannon_entropy_rate(model):
        return 0.0
    return rate_function_value(model, 1.0 - R)


@lru_cache(maxsize=64)
def critical_rate_x_star(model: NoiseModel) -> float | None:
    """The guesswork growth rate at which I_N has unit slope.

    By Legendre duality this is the SCGF slope at alpha = 1, the Legendre
    point x(1/2) = L(1/2) - L'(1/2)/2 (see ``_legendre_point``). Absent for
    degenerate (uniform) noise, where the rate function never steepens.
    """
    x = _legendre_point(model, 0.5)[0]
    return None if x >= 1.0 - 1e-9 else x


@lru_cache(maxsize=64)
def _abandonment_rate(model: NoiseModel, delta: float) -> float:
    """I_N(min(H + delta, 1)), the abandonment term of eps_AB: no rate in it."""
    return rate_function_value(model, min(shannon_entropy_rate(model) + delta, 1.0))


def error_exponent_pair(model: NoiseModel, R: float, delta: float | None):
    """(eps, eps_AB) at one rate. With a margin delta below capacity the
    decoder loses whichever is slower, genuine errors or abandonments:
    eps_AB = min(eps, I_N(min(H + delta, 1))). Otherwise eps_AB is None.
    Only eps depends on R: H, H_{1/2} and x* are computed once per model, and
    the abandonment term I_N(min(H + delta, 1)) once per (model, delta)."""
    if delta is not None:
        _finite("delta", delta, positive=True)
    eps = error_exponent(model, R)
    if delta is None or R >= 1.0 - shannon_entropy_rate(model):
        return eps, None
    return eps, min(eps, _abandonment_rate(model, delta))


def grandab_error_exponent(model: NoiseModel, R: float, delta: float) -> float:
    """Error exponent with abandonment; 0 at and above capacity."""
    eps, eps_ab = error_exponent_pair(model, R, delta)
    return eps if eps_ab is None else eps_ab


def complexity_exponents(
    model: NoiseModel, R: float, delta: float | None = None
) -> tuple[float, float]:
    """Growth exponents of the expected query count, without and with
    abandonment."""
    # H_{1/2} >= H, so from capacity (R >= 1 - H) up the minimum is 1 - R
    grand = min(renyi_entropy_rate(model, 0.5), 1.0 - _number("R", R))
    if delta is None:
        return grand, grand
    return grand, min(grand, shannon_entropy_rate(model) + _finite("delta", delta, positive=True))


def supercritical_threshold_y_star(model: NoiseModel, R: float) -> float | None:
    """Largest query exponent below which early termination still implies a
    correct decoding with high probability.

    The crossing of I_N with I_U(y) = 1 - R - y on (0, 1-R); exists whenever
    R < 1 - H_min. With L(rho) the Renyi log-sum of the noise (the SCGF is
    (1 + alpha) L(1/(1 + alpha))), the Legendre point at rho is
    y = L - rho L' with y + I_N(y) = -L'(rho). L is convex, so the crossing
    is the one root rho* of -L'(rho) = 1 - R, and y* = L(rho*) + rho* (1 - R).
    When -L'(0) <= 1 - R, which needs a symbol of probability 0, I_N stays
    below I_U up to the support edge L(0) = log_|A| #{p_i > 0}, where I_N
    becomes infinite: that edge is y*.
    """
    if _number("R", R) >= 1.0 - min_entropy_rate(model):
        return None
    edge, slope = model._edge
    if -slope <= 1.0 - R:
        return edge

    def f(rho: float) -> float:
        return -_renyi_log_sum(model, rho)[1] - (1.0 - R)

    hi, val = _rho_bracket(f)
    if val > 0.0:
        # Only the dominant term is left and -L' still exceeds 1 - R: R is
        # within float error of 1 - H_min, and y* is the Legendre point.
        return _legendre_point(model, hi)[0]
    rho = float(_brentq(f, 0.0, hi, xtol=1e-14))
    return _renyi_log_sum(model, rho)[0] + rho * (1.0 - R)


def select_delta(model: NoiseModel, n: int, p_abandon: float, p: float) -> float:
    """Abandonment margin delta(n) meeting a target abandonment probability.

    Solves I_N(H + delta) = -log2(p_abandon * min(p n, 1)) / n, so the
    abandonment probability is at most ``p_abandon`` times the expected
    uncoded block error probability: one root I(rho) = t on [0, 1] of the
    Legendre curve, where x(rho) runs from the support edge down to H. The
    target is in bits, so only binary alphabets are accepted; a law with a
    zero-probability symbol, whose I_N jumps to +inf at the edge, and p
    outside (0, 1] raise ValueError too.
    """
    if model.alphabet_size > 2:
        raise ValueError("the abandonment budget rule supports binary alphabets only")
    if isinstance(model, IIDNoise) and min(model.pmf) <= 0.0:
        raise ValueError(
            "the abandonment budget rule needs every noise symbol to have positive probability"
        )
    _unit("p_abandon", p_abandon)
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    n = _positive_int("n", n)
    q = p_abandon * min(p * n, 1.0)  # in (0, 1), unless it underflows: then sum the logs
    t = -(math.log2(q) if q else math.log2(p_abandon) + math.log2(min(p * n, 1.0))) / n

    def f(rho: float) -> float:
        return _legendre_point(model, rho)[1] - t

    if f(0.0) < 0.0:
        raise ValueError(f"target exponent {t:.4g} exceeds the rate function's range")
    delta = 0.0  # f(1) >= 0, t within float error of I(H) = 0, puts the root where x <= H
    if f(1.0) < 0.0:
        rho = _brentq(f, 0.0, 1.0, xtol=1e-14)
        delta = _legendre_point(model, rho)[0] - shannon_entropy_rate(model)
    if delta <= 0.0:
        raise ValueError("abandonment target gives a non-positive margin")
    return delta


# Largest budget exponent abandonment_threshold accepts.
_EXPONENT_CAP = 64.0


def abandonment_threshold(n: int, H: float, delta: float) -> int:
    """Query budget ceil(2^(n(H + delta))), clamped to 2^n.

    For binary alphabets only, like :func:`select_delta`, which rejects
    larger ones: ``H`` and ``delta`` are in bits. The exponent is capped at
    64 so a typo cannot request astronomical budgets.
    """
    n, H, delta = _positive_int("n", n), _finite("H", H), _finite("delta", delta, positive=True)
    exponent = n * min(H + delta, 1.0)
    if exponent > _EXPONENT_CAP:
        raise ValueError(
            f"abandonment exponent {exponent:.1f} exceeds cap {_EXPONENT_CAP}"
        )
    with mpmath.workdps(40):
        t = int(mpmath.ceil(mpmath.mpf(2) ** exponent))
    return min(t, 2**n)


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


def exponent_report(
    model: NoiseModel,
    R: float,
    delta: float | None = None,
) -> ExponentReport:
    """Assemble every exponent-level quantity for one rate point."""
    H = shannon_entropy_rate(model)
    grand_exp, grandab_exp = complexity_exponents(model, R, delta)
    eps, eps_ab = error_exponent_pair(model, R, delta)
    return ExponentReport(
        model_summary=repr(model),
        R=R,
        H=H,
        H_half=renyi_entropy_rate(model, 0.5),
        H_min=min_entropy_rate(model),
        capacity=1.0 - H,
        x_star=critical_rate_x_star(model),
        y_star=supercritical_threshold_y_star(model, R),
        epsilon=eps,
        s=success_exponent(model, R),
        epsilon_AB=eps_ab,
        grand_complexity_exp=grand_exp,
        grandab_complexity_exp=grandab_exp,
    )


# ---------------------------------------------------------------------------
# Finite-blocklength BSC formulas.
#
# Guesses against Bernoulli(p) noise, p <= 1/2, proceed through Hamming-weight
# layers: ranks (l_{k-1}, l_k] all have probability q_k = p^k (1-p)^(n-k), where
# l_k counts strings of weight <= k. The accidental-hit time is approximately
# exponential, P(U > j) = r^j with r = e^(-c) and c = 2^(-n(1-R)). The success
# probability and the expected query count read one layer sum, ``_layer_sums``:
# closed forms per layer, so no loop touches individual ranks. It is exact for
# that law at every rate and block length, at a precision set by n(1-R).
# ---------------------------------------------------------------------------


def _weight_layers(n: int, p):
    """Hamming-weight layers of Bernoulli(p) noise on n bits, k = 0..n.

    Yields (size, l_prev, l_k, q_k): the size = C(n, k) sequences of weight k
    hold ranks (l_prev, l_k], each with probability q_k = p^k (1-p)^(n-k),
    computed in the arithmetic of ``p`` (float or mpmath). Past p = 1/2 these are the layers
    of 1 - p: complementing the noise maps them onto BSC(p)'s, so G has one law for both.
    """
    p, l_prev = min(p, 1 - p), 0
    for k in range(n + 1):
        size = comb(n, k)
        l_k = l_prev + size
        yield size, l_prev, l_k, p**k * (1 - p) ** (n - k)
        l_prev = l_k


def _check_bsc(n: int, p: float, R: float | None = None) -> int:
    """The block length, flip probability and rate (if any) rules shared by
    the formulas below; n as an int."""
    n = _positive_int("n", n)
    _unit("p", p)
    if R is not None:
        _unit("R", R)
    return n


@contextmanager
def _hit_law(n: int, R: float):
    """c = 2^(-n(1-R)), at 2 n(1-R) log10(2) + 60 digits set for the block: ``_layer_sums``
    loses up to log10(1/c) digits in differences of e^(-cj), and s1 to terms of order 1/c^2."""
    with mpmath.workdps(math.ceil(2 * n * (1 - R) * math.log10(2)) + 60):
        yield mpmath.mpf(2) ** (-mpmath.mpf(n) * (1 - mpmath.mpf(R)))


def _layer_sums(n: int, p: float, c, T: int):
    """Per weight layer below the budget T: (size, l_k, q_k, s0, s1), where
    s0 = sum r^j = (r^a - r^b) / (1 - r) and s1 = sum j r^j over the ranks
    j in [a, b) = [l_prev, min(l_k, T)), with r^a = e^(-ca). Stops where
    r^a < e^-5000: every later sum is below e^-5000 / c."""
    r, w, ra = mpmath.exp(-c), -mpmath.expm1(-c), mpmath.mpf(1)
    for size, a, l_k, q_k in _weight_layers(n, mpmath.mpf(p)):
        if a >= T or a * c > 5000:
            return
        b = min(l_k, T)
        rb = mpmath.exp(-c * b)
        s0 = (ra - rb) / w
        yield size, l_k, q_k, s0, a * s0 + (r * s0 - (b - a) * rb) / w
        ra = rb


def bsc_success_prob_fine(n: int, R: float, p: float) -> float:
    """P(correct decoding) = P(U > G) = sum_k q_k r s0_k for a BSC with a
    uniform random codebook; the block error probability is one minus this."""
    n = _check_bsc(n, p, R)
    with _hit_law(n, R) as c:
        layers = _layer_sums(n, p, c, 2**n)
        return float(mpmath.exp(-c) * sum(q_k * s0 for _, _, q_k, s0, _ in layers))


def bsc_guesswork_quantile(n: int, p: float, prob: float) -> int:
    """Smallest rank m with P(G <= m) >= prob, for Bernoulli(p) noise."""
    n = _check_bsc(n, p)
    with mpmath.workdps(60):
        target = mpmath.mpf(_unit("prob", prob))
        cdf = mpmath.mpf(0)
        for size, l_prev, _, q_k in _weight_layers(n, mpmath.mpf(p)):
            layer_mass = size * q_k
            if cdf + layer_mass >= target:
                need = (target - cdf) / q_k
                return l_prev + int(mpmath.ceil(need))
            cdf += layer_mass
        # unreached: at 60 digits the layers sum to 1 within 1e-58, past any prob <= 1 - 2^-53


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
    count of blocks that produce a decoding). E sums P(G > j) r^j over j < T,
    and P(G > j) falls linearly through each layer: tail_k + q_k (l_k - j).
    """
    n = _check_bsc(n, p, R)
    if max_queries is not None:
        max_queries = _positive_int("max_queries", max_queries)
    if conditional and max_queries is None:
        raise ValueError("conditional mean requires a query budget")
    T = 2**n if max_queries is None else min(max_queries, 2**n)
    with _hit_law(n, R) as c:
        expectation = mpmath.mpf(0)
        tail = mpmath.mpf(1)  # P(W > k), W the noise weight
        survival = mpmath.mpf(0)  # P(G > T); 0 if the sums stop at r^a < e^-5000
        for size, l_k, q_k, s0, s1 in _layer_sums(n, p, c, T):
            tail -= size * q_k
            expectation += tail * s0 + q_k * (l_k * s0 - s1)
            if l_k >= T:  # T lies in layer k: survival falls linearly in the rank
                survival = tail + (l_k - T) * q_k
        if not conditional:
            return float(expectation / n)
        # no raise: 1 - p_ab >= 1 - r >= c/2, far above this precision's epsilon
        p_ab = survival * mpmath.exp(-c * T)
        return float((expectation - T * p_ab) / (1 - p_ab) / n)


def max_achievable_rate(
    model: NoiseModel, n: int, p: float, p_block_target: float, p_abandon: float
) -> float:
    """Largest code rate whose abandonment-aware error exponent keeps the
    predicted block error 2^(-n eps_AB(R)) at or below the target.

    ValueError when no positive rate does, as when p_block_target lies at or below
    p_abandon * min(p n, 1), the abandonment probability the budget allows.
    """
    delta = select_delta(model, n, p_abandon, p)
    need = -math.log2(_unit("p_block_target", p_block_target)) / n
    allowed = p_abandon * min(p * n, 1.0)

    def f(R: float) -> float:
        return grandab_error_exponent(model, R, delta) - need

    cap = capacity(model)
    lo, hi = 1e-6, cap - 1e-9
    if p_block_target <= allowed or f(lo) <= 0.0:
        raise ValueError(
            f"no positive rate meets p_block_target = {p_block_target:g}; abandonment "
            f"alone is allowed p_abandon*min(p*n, 1) = {allowed:g}"
        )
    return float(_brentq(f, lo, hi, xtol=1e-10))
