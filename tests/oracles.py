"""Independent reference implementations the tests check the library against.

Each oracle keeps its own walk over the sequences or weight layers, so it
cannot share a fault with the code it checks. They live here, not in the
package, because no library path uses them.
"""

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import mpmath
import numpy as np
from scipy.optimize import brentq, minimize_scalar

from grandkit import simulator
from grandkit.analysis import rate_function_value
from grandkit.codebook import ExplicitCodebook, NotACodewordError, UHitModel
from grandkit.decoder import DecodeResult, DecodeStatus
from grandkit.guesswork import (
    _class_key,
    _class_log_prob,
    _class_table,
    _multinomial,
    guess_groups,
    guess_rank,
)
from grandkit.noise_models import (
    IIDNoise,
    NoiseModel,
    _checked,
    _pack,
    _unpack,
    sample_noise_with,
)


def sample_noise(model: NoiseModel, n: int, rng_seed: int) -> np.ndarray:
    """Draw a length-``n`` noise realization, deterministic in ``rng_seed``."""
    rng = np.random.default_rng(rng_seed)
    return sample_noise_with(model, n, rng)


def sample_noise_choice(model: NoiseModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """``sample_noise_with`` as it first drew noise: IID symbols by ``rng.choice``
    with ``p``, the Markov chain one numpy symbol at a time."""
    if isinstance(model, IIDNoise):
        return rng.choice(model.alphabet_size, size=n, p=model.pmf).astype(np.uint8)
    out = np.empty(n, dtype=np.uint8)
    u = rng.random(n)
    state = 0 if u[0] < model.initial_dist[0] else 1
    out[0] = state
    stay = (1.0 - model.a, 1.0 - model.b)
    for i in range(1, n):
        if u[i] >= stay[state]:
            state = 1 - state
        out[i] = state
    return out


# ---------------------------------------------------------------------------
# Entropy rates by their direct formulas, each apart from the Renyi log-sum
# ``grandkit.noise_models._renyi_log_sum`` that the library reads them off.
# ---------------------------------------------------------------------------


def _binary_entropy(p: float) -> float:
    """Binary Shannon entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def shannon_entropy_rate_direct(model: NoiseModel) -> float:
    """Shannon entropy rate of the noise, base |A|."""
    if isinstance(model, IIDNoise):
        log_a = math.log2(model.alphabet_size)
        h = -sum(p * math.log2(p) for p in model.pmf if p > 0.0)
        return h / log_a
    a, b = model.a, model.b
    return (_binary_entropy(a) * b + _binary_entropy(b) * a) / (a + b)


def renyi_entropy_rate_direct(model: NoiseModel, alpha: float) -> float:
    """Renyi entropy rate at parameter ``alpha`` (alpha > 0, alpha != 1), base |A|.

    The Markov form is the log of the leading eigenvalue of the matrix with
    entries raised to the power alpha; it collapses to the IID expression when
    both rows agree. Evaluation is stable for very large alpha by factoring
    out the dominant term.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if alpha == 1.0:
        raise ValueError("alpha = 1 is the Shannon rate; use shannon_entropy_rate")
    if isinstance(model, IIDNoise):
        log_a2 = math.log2(model.alphabet_size)
        p_max = max(model.pmf)
        # log2 sum p^alpha = alpha log2 p_max + log2 sum (p/p_max)^alpha
        s = sum((p / p_max) ** alpha for p in model.pmf if p > 0.0)
        log_sum = alpha * math.log2(p_max) + math.log2(s)
        return log_sum / (1.0 - alpha) / log_a2
    a, b = model.a, model.b
    # Leading eigenvalue of [[(1-a)^al, a^al], [b^al, (1-b)^al]], scaled by the
    # dominant per-step probability so huge alpha does not underflow.
    m = max(1.0 - a, 1.0 - b, math.sqrt(a * b))
    u1 = ((1.0 - a) / m) ** alpha
    u2 = ((1.0 - b) / m) ** alpha
    u3 = (math.sqrt(a * b) / m) ** alpha
    lam_scaled = (u1 + u2 + math.sqrt((u1 - u2) ** 2 + 4.0 * u3 * u3)) / 2.0
    log_lam = alpha * math.log2(m) + math.log2(lam_scaled)
    return log_lam / (1.0 - alpha)


def min_entropy_rate_direct(model: NoiseModel) -> float:
    """Min-entropy rate: the large-alpha limit of the Renyi rate, base |A|.

    For the Markov chain this is minus the log of the best per-step growth,
    attained by staying in a state or alternating between the two.
    """
    if isinstance(model, IIDNoise):
        return -math.log2(max(model.pmf)) / math.log2(model.alphabet_size)
    a, b = model.a, model.b
    return -math.log2(max(1.0 - a, 1.0 - b, math.sqrt(a * b)))


@lru_cache(maxsize=64)
def _log_terms(model: NoiseModel) -> tuple[tuple[float, ...], float]:
    """The natural logs L(rho) is built from, and ln|A|, taken once per model:
    ln p_i for each p_i > 0 for IID noise. For the Markov chain, ln(1 - a),
    ln(1 - b) and ln(ab)/2: [P_ij^rho] has the eigenvalues of the symmetric
    [[d1, c], [c, d2]] whose entries are the exps of rho times these."""
    if isinstance(model, IIDNoise):
        logs = tuple(math.log(p) for p in model.pmf if p > 0.0)
    else:
        logs = (math.log1p(-model.a), math.log1p(-model.b), 0.5 * math.log(model.a * model.b))
    return logs, math.log(model.alphabet_size)


def renyi_log_sum_direct(model: NoiseModel, rho: float) -> tuple[float, float]:
    """(L, L') at ``rho`` >= 0, base |A|, with the dominant log and the shifted
    logs taken again on every call: the library keeps them on the model, and
    must give the same floats."""
    logs, log_a = _log_terms(model)
    top = max(logs)
    w = [math.exp(rho * (l - top)) for l in logs]
    if isinstance(model, IIDNoise):
        lam = sum(w)
        dlam = sum(wi * l for wi, l in zip(w, logs))
    else:
        (l1, l2, lc), (d1, d2, c) = logs, w
        root = math.hypot(d1 - d2, 2.0 * c)
        lam = (d1 + d2 + root) / 2.0
        cross = ((d1 - d2) * (d1 * l1 - d2 * l2) + 4.0 * c * c * lc) / root if root else 0.0
        dlam = (d1 * l1 + d2 * l2 + cross) / 2.0
    return (rho * top + math.log(lam)) / log_a, dlam / lam / log_a


def entropy_rate_reference(model: NoiseModel, alpha: float | None, dps: int = 40) -> float:
    """The entropy rate of order ``alpha`` at ``dps`` digits, base |A|, by
    closed forms in mpmath: alpha = 1 is the Shannon rate, -sum p ln p for IID
    noise and the stationary mix of binary entropies for the Markov chain;
    other positive alpha the Renyi rate, log sum p^alpha / (1 - alpha) or the
    log of the Perron root of [P_ij^alpha] over 1 - alpha; ``None`` the
    min-entropy rate, -ln of the largest probability or per-step growth."""
    mp = mpmath
    with mp.workdps(dps):
        if isinstance(model, IIDNoise):
            ps = [mp.mpf(p) for p in model.pmf if p > 0.0]
            if alpha is None:
                h = -mp.log(max(ps))
            elif alpha == 1.0:
                h = -mp.fsum(p * mp.log(p) for p in ps)
            else:
                al = mp.mpf(alpha)
                h = mp.log(mp.fsum(p**al for p in ps)) / (1 - al)
            return float(h / mp.log(model.alphabet_size))
        a, b = mp.mpf(model.a), mp.mpf(model.b)
        if alpha is None:
            h = -mp.log(max(1 - a, 1 - b, mp.sqrt(a * b)))
        elif alpha == 1.0:
            def h2(q):
                return -q * mp.log(q) - (1 - q) * mp.log(1 - q)

            h = (h2(a) * b + h2(b) * a) / (a + b)
        else:
            al = mp.mpf(alpha)
            d1, d2, c = (1 - a) ** al, (1 - b) ** al, (a * b) ** al
            lam = (d1 + d2 + mp.sqrt((d1 - d2) ** 2 + 4 * c)) / 2
            h = mp.log(lam) / (1 - al)
        return float(h / mp.log(2))


class GuessEnumerator:
    """Best-first emission of noise sequences in non-increasing probability order.

    Works for both model kinds by expanding prefixes on a max-priority frontier;
    extending a prefix can only lower its probability, so a complete sequence is
    in final position once popped. Memory grows with (emitted x alphabet)
    frontier entries, which is the scaling limit of enumeration; use
    ``guess_rank`` for large block lengths.
    """

    def __init__(self, model: NoiseModel, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.model = model
        self.n = n
        self.emitted_count = 0
        self.total = model.alphabet_size**n
        a = model.alphabet_size
        # Heap entries: (-log_prob, value padded with zeros to length n, length,
        # sequence, stats). Shorter prefixes sort before equal-probability
        # completions so they are expanded in time.
        self._heap = []
        for s in range(a):
            seq = (s,)
            lp = self._prefix_log_prob(seq)
            heapq.heappush(
                self._heap, (-lp, s * a ** (n - 1), 1, seq)
            )

    def _prefix_log_prob(self, seq: tuple[int, ...]) -> float:
        if isinstance(self.model, IIDNoise):
            counts = [0] * self.model.alphabet_size
            for s in seq:
                counts[s] += 1
            return _class_log_prob(self.model, tuple(counts))
        trans = [0, 0, 0, 0]
        for prev, cur in zip(seq, seq[1:]):
            trans[2 * prev + cur] += 1
        return _class_log_prob(self.model, (seq[0], tuple(trans)))

    def __iter__(self):
        return self

    def __next__(self) -> tuple[tuple[int, ...], float]:
        a = self.model.alphabet_size
        while self._heap:
            neg_lp, padded, length, seq = heapq.heappop(self._heap)
            if length == self.n:
                self.emitted_count += 1
                return seq, -neg_lp
            shift = a ** (self.n - length - 1)
            for s in range(a):
                child = seq + (s,)
                lp = self._prefix_log_prob(child)
                heapq.heappush(
                    self._heap, (-lp, padded + s * shift, length + 1, child)
                )
        raise StopIteration

    def next_guess(self) -> tuple[tuple[int, ...], float] | None:
        """Next sequence and its log probability, or None when exhausted."""
        try:
            return next(self)
        except StopIteration:
            return None


def bsc_success_prob_fine_exact(n: int, R: float, p: float) -> tuple[float, float]:
    """(P, 1 - P) for P = P(correct decoding) of
    ``grandkit.analysis.bsc_success_prob_fine``, each rounded once from the
    sum, where a float 1 - P cancels to 0 once P rounds to 1. P is summed over
    every weight layer with exact layer integers, as differences
    e^(-(l_prev + 1) c) - e^(-(l_k + 1) c) over 1 - e^(-c). Each difference is
    at least about c, so it loses up to log10(1/c) digits: the sum works at
    that many plus 80. At a fixed 80 digits, n = 800 and R = 0.3 gave
    1 - P = 1.7e-3 where the value is 3.9e-15. The layers past rank l add at
    most sum over m > l of e^(-mc) <= 2 e^(-(l + 1) c) / c, so the sum stops
    once that is below 10^-dps."""
    with mpmath.workdps(math.ceil(n * (1 - R) * math.log10(2)) + 80):  # log10(1/c) + 80
        c = mpmath.mpf(2) ** (-mpmath.mpf(n) * (1 - mpmath.mpf(R)))
        denom = -mpmath.expm1(-c)
        cut = mpmath.mp.dps * mpmath.log(10) + mpmath.log(2 / c)
        pp = mpmath.mpf(p)
        total = mpmath.mpf(0)
        prev_l = 0
        for k in range(n + 1):
            if (prev_l + 1) * c > cut:
                break
            l_k = prev_l + comb(n, k)
            q_k = pp**k * (1 - pp) ** (n - k)
            e_lo = mpmath.e ** (-(prev_l + 1) * c)
            e_hi = mpmath.e ** (-(l_k + 1) * c)
            total += q_k * (e_lo - e_hi) / denom
            prev_l = l_k
        return float(total), float(1 - total)


def expected_queries_fine_exact(n: int, R: float, p: float, dps: int) -> float:
    """``grandkit.analysis.expected_queries_fine`` without a budget, at ``dps``
    digits: sum over j of P(G > j) r^j, r = e^(-c), with each weight layer's
    geometric sums in closed form through r^l = e^(-cl), over every layer."""
    with mpmath.workdps(dps):
        c = mpmath.mpf(2) ** (-mpmath.mpf(n) * (1 - mpmath.mpf(R)))
        r, w = mpmath.e**-c, -mpmath.expm1(-c)  # w = 1 - r
        pp = mpmath.mpf(p)
        total, beyond, prev_l, lo = mpmath.mpf(0), mpmath.mpf(1), 0, mpmath.mpf(1)
        for k in range(n + 1):
            l_k = prev_l + comb(n, k)
            q_k = pp**k * (1 - pp) ** (n - k)
            beyond -= comb(n, k) * q_k  # P(G > l_k)
            # j in [prev_l, l_k): P(G > j) = beyond + q_k (l_k - j)
            hi = mpmath.exp(-c * l_k)  # lo = r^prev_l
            s0 = (lo - hi) / w
            s1 = (prev_l * lo - l_k * hi) / w + r * (lo - hi) / w**2
            total += beyond * s0 + q_k * (l_k * s0 - s1)
            prev_l, lo = l_k, hi
        return float(total / n)


def error_exponent_infimum(model: NoiseModel, R: float) -> float:
    """Block-error decay rate below capacity; 0 at and above capacity.

    Computed as the infimum of I_U(a) + I_N(a) over a in [H, 1-R]; reference
    path for the closed form ``grandkit.analysis.error_exponent``.
    """
    H = shannon_entropy_rate_direct(model)
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


def supercritical_threshold_crossing(model: NoiseModel, R: float) -> float | None:
    """Largest query exponent below which early termination still implies a
    correct decoding with high probability.

    The crossing of I_N with I_U on (0, 1-R); exists whenever R < 1 - H_min.
    Found by a brentq over the numeric rate function; reference path for
    ``grandkit.analysis.supercritical_threshold_y_star``.
    """
    h_min = min_entropy_rate_direct(model)
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


def scgf_lambda_N(model: NoiseModel, alpha: float) -> float:
    """Scaled cumulant generating function of (1/n) log G(noise).

    Equals alpha times the Renyi rate at parameter 1/(1+alpha) for alpha > -1
    and minus the min-entropy rate below.
    """
    if alpha <= -1.0:
        return -min_entropy_rate_direct(model)
    if alpha == 0.0:
        return 0.0
    return alpha * renyi_entropy_rate_direct(model, 1.0 / (1.0 + alpha))


def scgf_derivative(model: NoiseModel, alpha: float) -> float:
    """Central-difference derivative of the SCGF at ``alpha`` (> -1)."""
    h = min(1e-6 * max(1.0, abs(alpha)), (alpha + 1.0) / 2.0)
    lo = scgf_lambda_N(model, alpha - h)
    hi = scgf_lambda_N(model, alpha + h)
    return (hi - lo) / (2.0 * h)


def _linear_segment_end(model: NoiseModel) -> float:
    """gamma: the limiting SCGF slope as alpha decreases to -1.

    Captures the growth rate of the set of maximum-probability sequences; zero
    whenever the most likely sequence is unique. Convergence in the offset is
    exponentially fast, so a single evaluation close to -1 suffices.
    """
    return scgf_derivative(model, -1.0 + 1e-4)


@dataclass(frozen=True)
class RateFunctionTable:
    """Grid evaluation of the guesswork rate function with its landmarks."""

    x_grid: tuple[float, ...]
    I_values: tuple[float, ...]
    gamma: float
    H: float
    H_half: float
    H_min: float

    def __call__(self, x: float) -> float:
        return float(np.interp(x, self.x_grid, self.I_values))


def rate_function_I_N(model: NoiseModel, x_grid) -> RateFunctionTable:
    """Evaluate the guesswork rate function on ``x_grid`` (points in [0, 1])."""
    xs = tuple(float(x) for x in x_grid)
    if any(x < 0.0 or x > 1.0 for x in xs):
        raise ValueError("grid points must lie in [0, 1]")
    values = tuple(rate_function_value(model, x) for x in xs)
    return RateFunctionTable(
        x_grid=xs,
        I_values=values,
        gamma=_linear_segment_end(model),
        H=shannon_entropy_rate_direct(model),
        H_half=renyi_entropy_rate_direct(model, 0.5),
        H_min=min_entropy_rate_direct(model),
    )


def rate_function_I_U(R: float, x: float) -> float:
    """Rate function of the accidental-hit time: 1 - R - x on [0, 1-R]."""
    if not 0.0 < R < 1.0:
        raise ValueError("R must lie in (0, 1)")
    if 0.0 <= x <= 1.0 - R:
        return 1.0 - R - x
    return math.inf


def grand_rate_function(model: NoiseModel, R: float, x_grid) -> tuple[float, ...]:
    """Rate function of the decoder's termination time on ``x_grid``.

    Below capacity it coincides with the noise guesswork rate function up to
    x = 1-R; above capacity the accidental-hit branch can win, and the result
    need not be convex.
    """
    below = R < 1.0 - shannon_entropy_rate_direct(model)
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


def _legendre_curve_mp(model: NoiseModel):
    """rho -> (x, -L') on the Legendre curve x = L - rho L' in mpmath, base
    |A|, with L and L' in closed form: L(rho) is log sum p_i^rho for IID
    noise and the log of the Perron root (d1 + d2 + sqrt((d1 - d2)^2 + 4 c))
    / 2 of [P_ij^rho] for the Markov chain, where d1 = (1-a)^rho,
    d2 = (1-b)^rho and c = (ab)^rho."""
    mp = mpmath
    if isinstance(model, IIDNoise):
        logs = [mp.log(mp.mpf(p)) for p in model.pmf if p > 0.0]
        log_a = mp.log(model.alphabet_size)

        def log_sum(rho):
            w = [mp.exp(rho * l) for l in logs]
            s = mp.fsum(w)
            return mp.log(s), mp.fsum(wi * l for wi, l in zip(w, logs)) / s

    else:
        l1, l2 = mp.log(1 - mp.mpf(model.a)), mp.log(1 - mp.mpf(model.b))
        lc = mp.log(mp.mpf(model.a) * mp.mpf(model.b))
        log_a = mp.log(2)

        def log_sum(rho):
            d1, d2, c = mp.exp(rho * l1), mp.exp(rho * l2), mp.exp(rho * lc)
            root = mp.sqrt((d1 - d2) ** 2 + 4 * c)
            lam = (d1 + d2 + root) / 2
            dlam = d1 * l1 + d2 * l2 + ((d1 - d2) * (d1 * l1 - d2 * l2) + 2 * c * lc) / root
            return mp.log(lam), dlam / 2 / lam

    def point(rho):
        L, slope = log_sum(rho)
        return (L - rho * slope) / log_a, -slope / log_a

    return point


def rate_function_reference(model: NoiseModel, x: float, dps: int = 40) -> float:
    """I_N(x) at ``dps`` digits on the Legendre curve x(rho) = L - rho L',
    I_N = -L' - x, with x(rho) = x solved by bisection in rho to half of
    ``dps`` digits (I_N moves by about L'' times the error in rho); reference
    path for ``grandkit.analysis.rate_function_value``, edges included.

    +inf outside [0, 1] and past the support edge L(0). Bisection runs on
    rho in [0, 2^12]; at or below x(2^12), the linear segment, it returns
    -L'(2^12) - x, which for these laws is H_min - x to far more than ``dps``
    digits.
    """
    if not 0.0 <= x <= 1.0:
        return math.inf
    with mpmath.workdps(dps):
        point = _legendre_curve_mp(model)
        xm = mpmath.mpf(x)
        if xm > point(mpmath.mpf(0))[0]:
            return math.inf
        lo, hi = mpmath.mpf(0), mpmath.mpf(2) ** 12
        if point(hi)[0] < xm:
            while hi - lo > mpmath.mpf(10) ** (-dps // 2) * (1 + hi):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if point(mid)[0] > xm else (lo, mid)
        return float(point(hi)[1] - xm)


def sequence_log_prob(model: NoiseModel, z) -> float:
    """Base-|A| log probability of the symbol sequence ``z`` under ``model``.

    Computed canonically from the sequence's probability class, so sequences
    in the same class get bit-identical values.
    """
    if not (word := _checked(z, model.alphabet_size)):  # None, or an empty word
        raise ValueError("need a non-empty word of the alphabet's symbols")
    return _class_log_prob(model, _class_key(model, word))


def _subtract(y, z, alphabet_size: int) -> tuple[int, ...]:
    """Per-symbol inverse of the channel's modular addition (XOR when binary)."""
    return tuple((a - b) % alphabet_size for a, b in zip(y, z))


class TupleIndexCodebook:
    """An explicit codebook kept as one int tuple per word, indexed by a dict
    keyed on the tuples; collisions resolve to the lowest info index. Same
    interface as ``ExplicitCodebook``, for comparing its int-keyed index."""

    def __init__(self, n: int, alphabet_size: int, words):
        self.n, self.alphabet_size = n, alphabet_size
        self.words = tuple(tuple(int(s) for s in w) for w in words)
        self.index = {}
        for i, w in enumerate(self.words):
            self.index.setdefault(w, i)

    @property
    def size(self) -> int:
        return len(self.words)

    def bind(self, y):
        y, a, n = tuple(int(s) for s in y), self.alphabet_size, self.n
        if a == 2:
            minus = lambda z: _unpack(_pack(y) ^ z, n)
        else:
            minus = lambda z: _subtract(y, z, a)

        def hit(z):
            i = self.index.get(minus(z))
            return None if i is None else self.words[i]

        return hit

    def contains(self, word) -> bool:
        return tuple(word) in self.index

    def decode_to_info(self, word) -> int:
        if tuple(word) not in self.index:
            raise NotACodewordError("word is not in the codebook")
        return self.index[tuple(word)]


def brute_force_ml(cb: ExplicitCodebook, y, model: NoiseModel) -> tuple[int, ...]:
    """Codeword maximizing the likelihood of the implied noise, scanning the
    whole explicit codebook; ties go to the lowest info index."""
    y = tuple(int(s) for s in y)
    a = model.alphabet_size
    best_lp = -math.inf
    best = None
    for c in cb.words:
        lp = sequence_log_prob(model, _subtract(y, c, a))
        if lp > best_lp:
            best_lp = lp
            best = c
    return best


def walk_decode(cb, y, model: NoiseModel, max_queries: int | None = None) -> DecodeResult:
    """``grand_decode`` as a plain walk: every pattern ``guess_groups`` yields,
    in turn, tested with ``cb.bind(y)``; no syndrome lookup and no cached prefix."""
    hit = cb.bind(y)
    queries = 0
    for lp, patterns in guess_groups(model, cb.n):
        for z in patterns:
            queries += 1
            codeword = hit(z)
            if codeword is not None:
                return DecodeResult(codeword, queries, DecodeStatus.DECODED, lp)
            if queries == max_queries:
                return DecodeResult(None, queries, DecodeStatus.ABANDONED, None)
    raise AssertionError("guess enumeration exhausted with a non-empty codebook")


def u_survival_exact(m: UHitModel, threshold: int) -> float:
    """P(U > threshold) = (1 - threshold/|A|^n)^(M_n), exactly.

    Evaluated in extended precision so large block lengths neither overflow
    nor lose the tiny ratio threshold/|A|^n.
    """
    total = m.alphabet_size**m.n
    if not 0 <= threshold <= total:
        raise ValueError("threshold must lie in [0, |A|^n]")
    if threshold == 0:
        return 1.0
    if threshold == total:
        return 0.0
    with mpmath.workdps(m.n + 40):
        ratio = mpmath.mpf(threshold) / mpmath.mpf(total)
        log_surv = m.M_n * mpmath.log1p(-ratio)
        if log_surv < -745:
            return 0.0
        return float(mpmath.e**log_surv)


def u_survival_approx(m: UHitModel, threshold: int) -> float:
    """Exponential approximation P(U > t) ~ exp(-t |A|^(-n(1-R)))."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    exponent = math.log(threshold) / math.log(m.alphabet_size) if threshold else -math.inf
    log_arg = (exponent - m.n * (1.0 - m.rate)) * math.log(m.alphabet_size)
    if log_arg > math.log(745.0):
        return 0.0
    return math.exp(-math.exp(log_arg)) if threshold else 1.0


def guess_rank_walk(model: IIDNoise, z) -> int:
    """``guess_rank`` for IID noise by the per-symbol multinomial walk: every
    class of higher probability counts whole, and in each class of z's
    probability, each symbol c < z_i at position i counts the ways to finish
    once c is placed there after z's prefix."""
    z = tuple(int(s) for s in z)
    lp_z = _class_log_prob(model, _class_key(model, z))
    groups, _, _ = _class_table(model, len(z))
    rank = 1
    for lp, counts, size in ((lp, *member) for lp, members, _ in groups for member in members):
        if lp > lp_z:
            rank += size
        elif lp == lp_z:
            remaining = list(counts)
            for sym in z:
                for c in range(sym):
                    if remaining[c]:
                        remaining[c] -= 1
                        rank += _multinomial(remaining)
                        remaining[c] += 1
                if remaining[sym] == 0:
                    break
                remaining[sym] -= 1
    return rank


def sample_u_wide(m: UHitModel, v: float) -> int:
    """``grandkit.codebook.sample_u_exact`` at n + 40 decimal digits, the
    precision it had before it was sized to the digits of T = |A|^n."""
    if not 0.0 < v < 1.0:
        raise ValueError("v must lie strictly in (0, 1)")
    with mpmath.workdps(m.n + 40):
        total = mpmath.mpf(m.alphabet_size) ** m.n
        frac = -mpmath.expm1(mpmath.log(mpmath.mpf(v)) / m.M_n)
        u = int(mpmath.ceil(total * frac))
    return min(max(u, 1), m.alphabet_size**m.n)


def race_worker_exact(args) -> simulator._Tally:
    """The race worker with U sampled exactly in every trial."""
    model, n, rate, trials, threshold, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    hit = UHitModel(n=n, rate=rate, alphabet_size=model.alphabet_size)
    tally = simulator._Tally()
    for _ in range(trials):
        z = sample_noise_with(model, n, rng)
        g = guess_rank(model, z)
        v = rng.random()
        while v <= 0.0:
            v = rng.random()
        u = sample_u_wide(hit, v)
        queries = min(g, u) if threshold is None else min(g, u, threshold)
        abandoned = threshold is not None and min(g, u) > threshold
        # A tie g == u counts as an error: the accidental hit is queried first
        # only by convention, and the error event is defined as U <= G.
        error = abandoned or u <= g
        tally.record(queries, error, abandoned)
    return tally


def run_race_exact(cfg: simulator.SimConfig) -> simulator.SimReport:
    """``simulator.run_race`` on ``race_worker_exact``, wall time 0."""
    threshold = simulator.resolve_abandonment(cfg)
    tally = simulator._run_workers(
        race_worker_exact,
        lambda t, e: (cfg.model, cfg.n, cfg.rate, t, threshold, e),
        cfg,
    )
    return simulator._report(cfg, threshold, tally, 0.0)


# ---------------------------------------------------------------------------
# Exact GRAND / GRANDAB error and query count on a uniform random codebook:
# the law race mode samples, G the noise's guesswork rank and U the first
# accidental hit, the minimum of M = M_n uniforms on {1, ..., T = |A|^n}, so
# P(U > j) = (1 - j/T)^M.
# ---------------------------------------------------------------------------

# B_2k / (2k)! as (numerator, denominator), and 2k - 1, for k = 1, 2, 3: the
# Euler-Maclaurin corrections kept.
_EM_TERMS = ((1, 12, 1), (-1, 720, 3), (1, 30240, 5))


def _sequence_prob_mp(model: NoiseModel, key) -> mpmath.mpf:
    """The probability of each sequence of class ``key``, in mpmath from the model's
    parameters. The IID pmf is divided by its mpmath sum: the floats 0.9 and 0.1 sum to
    1 + 2.8e-17, which the classes at n = 800 would raise to a 2.2e-14 excess in total
    mass. The stationary start law is (b, a) / (a + b) in mpmath too, so a stationary
    class and its reversal get one value."""
    if isinstance(model, IIDNoise):
        pmf = [mpmath.mpf(p) for p in model.pmf]
        total = mpmath.fsum(pmf)
        return mpmath.fprod((p / total) ** c for p, c in zip(pmf, key))
    first, counts = key
    a, b = mpmath.mpf(model.a), mpmath.mpf(model.b)
    init = (b / (a + b), a / (a + b)) if model.initial is None else model.initial
    trans = (1 - a, a, b, 1 - b)
    return mpmath.mpf(init[first]) * mpmath.fprod(p**c for p, c in zip(trans, counts))


@lru_cache(maxsize=2)
def _hit_end(T: int, M: int, x: int, prec: int):
    """``_hit_sums``' terms at one end x of its range, at the working precision ``prec``
    the caller has set: (u^(M+1), u^(M+2), (f^(m)(x) for m = 0..5)), u = 1 - x/T. Kept for
    the next call, whose range starts where this one ended: one group's last rank."""
    Tm = mpmath.mpf(T)
    u = 1 - x / Tm
    powers = [u ** (M - 5)]  # u^(M-5), ..., u^(M+2), multiplied up so u = 0 needs no care
    for _ in range(7):
        powers.append(powers[-1] * u)
    # f^(m)(x) = (-1/T)^m M (M - 1) ... (M - m + 1) u^(M - m), m = 0..5
    derivs, fall = [], mpmath.mpf(1)
    for m in range(6):
        derivs.append((-1 / Tm) ** m * fall * powers[5 - m])
        fall *= M - m
    return powers[6], powers[7], tuple(derivs)


def _hit_sums(T: int, M: int, a: int, b: int):
    """(sum f(x), sum x f(x), f(a), f(b)) over the integers x in [a, b], where
    f(x) = (1 - x/T)^M = P(U > x), by Euler-Maclaurin with three corrections,
    exact on a one-point range. The remainder is at most 2 zeta(8) / (2 pi)^8
    (about 8e-7) times the integral of |h^(8)|: that is at most (M/T)^7 for
    h = f, and b (M/T)^7 + 8 (M/T)^6 for h = x f, so the range must have
    M/T <= 1/16.
    The integrals are closed forms in u = 1 - x/T: T/(M+1) u^(M+1) for f, and
    T^2 (u^(M+1)/(M+1) - u^(M+2)/(M+2)) for x f, each up to sign."""
    Tm = mpmath.mpf(T)
    if 16 * M > T:
        raise ValueError("Euler-Maclaurin needs M/T <= 1/16")
    (xa, ua1, ua2, da), (xb, ub1, ub2, db) = ((x, *_hit_end(T, M, x, mpmath.mp.prec))
                                              for x in (a, b))
    sum_f = Tm / (M + 1) * (ua1 - ub1) + (da[0] + db[0]) / 2
    sum_xf = Tm**2 * ((ua1 - ub1) / (M + 1) - (ua2 - ub2) / (M + 2)) + (xa * da[0] + xb * db[0]) / 2
    for num, den, m in _EM_TERMS:
        coef = mpmath.mpf(num) / den
        sum_f += coef * (db[m] - da[m])
        # (x f)^(m) = x f^(m) + m f^(m-1)
        sum_xf += coef * ((xb * db[m] + m * db[m - 1]) - (xa * da[m] + m * da[m - 1]))
    return sum_f, sum_xf, da[0], db[0]


def random_codebook_exact(model: NoiseModel, n: int, R: float, budget: int | None = None):
    """(P(error), E[queries]) of GRAND, or of GRANDAB with ``budget`` B, on a uniform
    random codebook, exactly: the law race mode samples, summed over the class table's
    tie groups, in each of which every rank g has one probability q. With
    f(j) = P(U > j) = (1 - j/T)^M,

        P(error)   = sum over g <= B of P(G = g) (1 - f(g)) + P(G > B),
        E[queries] = sum over j < B of P(G > j) f(j).

    Inside a group P(G > j) falls by q per rank, so its part of E[queries] needs
    sum f(j) and sum j f(j) over the group's ranks (``_hit_sums``). The sum stops
    once f is below 1e-40 of the mass left: every later rank is an error, and adds
    no query past that bound. Works at log10 T + 40 digits: at n = 200, 50 digits
    gave 2.8795e-1 where the true error is 2.7829e-1.
    """
    groups, T, _ = _class_table(model, n)
    M = UHitModel(n=n, rate=R, alphabet_size=model.alphabet_size).M_n
    B = T if budget is None else min(budget, T)
    with mpmath.workdps(math.ceil(n * math.log10(model.alphabet_size)) + 40):
        reach = 1 + mpmath.mpf(T) / (M + 1)  # sum of f(j) over j >= e, over f(e), at most
        error = queries = within = mpmath.mpf(0)  # within: P(G <= B) over the groups summed
        beyond = mpmath.mpf(1)  # P(G > s), s the ranks before the group
        for _, members, s in groups:
            if s >= B:
                break
            q = _sequence_prob_mp(model, members[0][0])
            for key, _ in members[1:]:
                if abs(_sequence_prob_mp(model, key) / q - 1) > 1e-12:
                    raise ValueError("a tie group holds classes of unequal probability")
            e = min(s + sum(size for _, size in members), B)  # ranks s + 1 .. e
            sum_f, sum_xf, f_s, f_e = _hit_sums(T, M, s, e)
            # ranks g in (s, e]: error with P(U <= g) = 1 - f(g)
            error += q * ((e - s) - (sum_f - f_s))
            # j in [s, e): P(G > j) = beyond - q (j - s)
            queries += (beyond + q * s) * (sum_f - f_e) - q * (sum_xf - e * f_e)
            within += q * (e - s)
            beyond -= q * (e - s)
            if f_e * reach < 1e-40:  # the ranks left add under 1e-40 to either sum
                break
        return float(error + 1 - within), float(queries)


def guesswork_tail(model: NoiseModel, n: int, budget: int) -> float:
    """P(G > B) for the budget B, summed off the class table with ``random_codebook_exact``'s
    sequence probabilities: the groups before B, each cut at B, hold P(G <= B)."""
    groups, _, _ = _class_table(model, n)
    with mpmath.workdps(math.ceil(n * math.log10(model.alphabet_size)) + 40):
        within = mpmath.mpf(0)
        for _, members, s in groups:
            if s >= budget:
                break
            ranks = min(sum(size for _, size in members), budget - s)
            within += _sequence_prob_mp(model, members[0][0]) * ranks
        return float(1 - within)


def random_codebook_brute(model: NoiseModel, n: int, R: float, budget: int | None = None):
    """``random_codebook_exact`` by a direct sum over every sequence and every rank: each
    sequence's probability is the product of its symbol or transition probabilities, and
    the ranks come from sorting them, ties by ascending value. Only for small |A|^n."""
    a = model.alphabet_size
    M = UHitModel(n=n, rate=R, alphabet_size=a).M_n
    T = a**n
    B = T if budget is None else min(budget, T)
    with mpmath.workdps(math.ceil(n * math.log10(a)) + 40):
        if isinstance(model, IIDNoise):
            pmf = [mpmath.mpf(p) for p in model.pmf]

            def prob(z):
                return mpmath.fprod(pmf[s] for s in z)
        else:
            x, y = mpmath.mpf(model.a), mpmath.mpf(model.b)
            init = (y / (x + y), x / (x + y)) if model.initial is None else model.initial
            step = ((1 - x, x), (y, 1 - y))

            def prob(z):
                return mpmath.mpf(init[z[0]]) * mpmath.fprod(step[s][t] for s, t in zip(z, z[1:]))

        ranked = sorted((-prob(z), z) for z in itertools.product(range(a), repeat=n))
        probs = [-p for p, _ in ranked]
        Tm = mpmath.mpf(T)
        error = queries = mpmath.mpf(0)
        beyond = mpmath.mpf(1)  # P(G > j)
        for j, p in enumerate(probs):  # p = P(G = j + 1)
            if j < B:
                queries += beyond * (1 - j / Tm) ** M
                error += p * (1 - (1 - (j + 1) / Tm) ** M)
            else:
                error += p
            beyond -= p
        return float(error), float(queries)


@dataclass(frozen=True)
class LinearCodeExact:
    """Exact GRAND (or GRANDAB) statistics of one binary linear code under one noise law:
    the probabilities of a correct decode and of abandonment, the expected query count,
    and ``first``, {syndrome: (q(s), packed pattern, probability)} for each syndrome met
    within the walk, q(s) counting the patterns before its first one."""

    correct: float
    abandon: float
    queries: float
    first: dict


def _weight_layer(n: int, w: int):
    """The bit sets of weight ``w`` below bit n, as ascending tuples, in ascending order of
    the packed words they make: by their highest bit first (colex order)."""
    if w == 0:
        yield ()
        return
    for top in range(w - 1, n):
        for rest in _weight_layer(top, w - 1):
            yield rest + (top,)


def _guess_walk(model: NoiseModel, n: int):
    """(packed pattern, probability) in guess order, by the oracle's own walk: the weight
    layers in ascending packed order for a BSC with p < 1/2, else ``GuessEnumerator``."""
    if isinstance(model, IIDNoise):
        p = model.pmf[1]
        if not (model.alphabet_size == 2 and p < 0.5):
            raise ValueError("the weight-layer walk needs a BSC with p < 1/2")
        for w in range(n + 1):
            prob = p**w * (1 - p) ** (n - w)
            for bits in _weight_layer(n, w):
                yield sum(1 << b for b in bits), prob
        return
    init, a, b = model.initial_dist, model.a, model.b
    step = ((1 - a, a), (b, 1 - b))
    for z, _ in GuessEnumerator(model, n):
        yield _pack(z), init[z[0]] * math.prod(step[s][t] for s, t in zip(z, z[1:]))


def _walsh_hadamard(v: np.ndarray) -> np.ndarray:
    """The unnormalised Walsh-Hadamard transform of a vector of length 2^r."""
    h = 1
    while h < v.size:
        v = v.reshape(-1, 2, h)
        v = np.stack((v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]), axis=1)
        h *= 2
    return v.reshape(-1)


def _syndrome_law(model: NoiseModel, columns: list[int], r: int) -> np.ndarray:
    """P(H z = s) for every s, where ``columns[b]`` is H's column at bit b of the packed z.

    For a BSC, E[(-1)^<u, Hz>] = (1 - 2p)^(the columns h with <u, h> odd), and that count is
    read off the transform of the columns' histogram; one inverse transform gives the law.
    For Markov noise, a forward pass over (state, syndrome), symbol by symbol."""
    size = 2**r
    if isinstance(model, IIDNoise):
        counts = np.bincount(columns, minlength=size).astype(float)
        odd = (len(columns) - _walsh_hadamard(counts)) / 2
        return _walsh_hadamard((1 - 2 * model.pmf[1]) ** odd) / size
    a, b, n = model.a, model.b, len(columns)
    index = np.arange(size)
    zero, one = np.zeros(size), np.zeros(size)
    zero[0], one[columns[n - 1]] = model.initial_dist
    for bit in range(n - 2, -1, -1):  # symbol n - 1 - bit
        zero, one = zero * (1 - a) + one * b, (zero * a + one * (1 - b))[index ^ columns[bit]]
    return zero + one


def linear_code_exact(cb, model: NoiseModel, budget: int | None = None) -> LinearCodeExact:
    """GRAND's exact error, abandonment and queries on the binary linear code ``cb``.

    GRAND decodes the noise z correctly exactly when z is the first pattern in guess order
    with syndrome H z, and it comes within the budget B. So the walk keeps each syndrome's
    first index q(s) over the first B patterns, or until all 2^(n - k) syndromes are met.
    Then P(correct) sums the first patterns' probabilities, P(abandon) is the mass of the
    syndromes not met, and E[queries] = sum_s P(s) min(q(s) + 1, B), B infinite with no
    budget. H = [P^T | I] comes from G = [I | P] alone, a syndrome read as an int with its
    first parity symbol most significant. Keeps n - k <= 21."""
    g = np.asarray(cb.generator, dtype=np.int64)
    k, n = g.shape
    r = n - k
    if r > 21:
        raise ValueError("the syndrome law needs n - k <= 21")
    # columns[b]: H's column at symbol n - 1 - b, an info symbol's parity bits or a unit
    columns = [1 << b if b < r else _pack(g[n - 1 - b, k:].tolist()) for b in range(n)]
    first, limit = {}, math.inf if budget is None else budget
    for q, (z, prob) in enumerate(_guess_walk(model, n)):
        if q >= limit or len(first) == 2**r:
            break
        s, rest = 0, z
        while rest:
            low = rest & -rest
            s ^= columns[low.bit_length() - 1]
            rest ^= low
        first.setdefault(s, (q, z, prob))
    law = _syndrome_law(model, columns, r)
    missed = np.ones(2**r, bool)
    missed[list(first)] = False
    abandon = math.fsum(law[missed])
    queries = math.fsum(law[s] * (q + 1) for s, (q, _, _) in first.items())
    if abandon:  # never without a budget, where B * 0 would be inf * 0, a NaN
        queries += limit * abandon
    correct = math.fsum(prob for _, _, prob in first.values())
    return LinearCodeExact(correct, abandon, queries, first)


def linear_code_brute(cb, model: NoiseModel, budget: int | None = None) -> LinearCodeExact:
    """``linear_code_exact`` by a sum over all 2^n noises z: each one's probability is the
    product of its flip or transition probabilities, its rank comes from ``guess_rank``, its
    syndrome from a matrix product with G's parity part, and z decodes correctly when it
    has the least rank of its syndrome, within the budget. Only for small n."""
    g = np.asarray(cb.generator, dtype=np.int64)
    k, n = g.shape
    words = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
    syndromes = (words[:, :k] @ g[:, k:] + words[:, k:]) % 2 @ (1 << np.arange(n - k)[::-1])
    ranks = np.array([guess_rank(model, z) for z in words.tolist()], dtype=float)
    if isinstance(model, IIDNoise):
        weights = words.sum(axis=1)
        probs = model.pmf[1] ** weights * model.pmf[0] ** (n - weights)
    else:
        step = np.array(((1 - model.a, model.a), (model.b, 1 - model.b)))
        probs = np.array(model.initial_dist)[words[:, 0]]
        probs = probs * np.prod(step[words[:, :-1], words[:, 1:]], axis=1)
    least = np.full(2 ** (n - k), math.inf)
    np.minimum.at(least, syndromes, ranks)
    limit = math.inf if budget is None else budget
    queries = np.minimum(least[syndromes], limit)
    hits = (ranks == least[syndromes]) & (ranks <= limit)
    packed = words[hits] @ (1 << np.arange(n)[::-1])
    first = {int(s): (int(r) - 1, int(z), float(p)) for s, r, z, p in
             zip(syndromes[hits], ranks[hits], packed, probs[hits])}
    return LinearCodeExact(math.fsum(probs[hits]), math.fsum(probs[least[syndromes] > limit]),
                           math.fsum(probs * queries), first)
