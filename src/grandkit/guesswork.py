"""Noise-sequence enumeration in likelihood order and its large-deviation analytics.

``iter_guesses`` emits every length-n sequence exactly once, from most likely
to least likely, breaking probability ties by ascending numeric value of the
sequence read as a base-|A| integer (most significant symbol first). The same
order is computed without enumeration by ``guess_rank``, which counts whole
probability classes at once, so ranks stay exact even when they are
astronomically large.

Log probabilities are always derived from sufficient statistics in a fixed
summation order, so two sequences in the same probability class compare as
bit-identical floats everywhere in this module.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np
from scipy.optimize import minimize_scalar

from .noise_models import (
    IIDNoise,
    NoiseModel,
    _class_key,
    _class_log_prob,
    min_entropy_rate,
    renyi_entropy_rate,
    shannon_entropy_rate,
)

__all__ = [
    "iter_guesses",
    "guess_rank",
    "cumulative_binomial_layers",
    "scgf_lambda_N",
    "scgf_derivative",
    "rate_function_value",
    "rate_function_I_N",
    "RateFunctionTable",
]

# Upper limit for the argument when chasing the supremum of x*alpha - Lambda(alpha);
# beyond this the objective has numerically flat-lined for every x < 1.
_ALPHA_CAP = 1e8


# ---------------------------------------------------------------------------
# Exact rank computation via probability classes.
# ---------------------------------------------------------------------------


def _multinomial(n: int, counts) -> int:
    out = 1
    rem = n
    for c in counts:
        out *= comb(rem, c)
        rem -= c
    return out


def _iid_compositions(n: int, parts: int):
    """All count vectors of length ``parts`` summing to ``n``."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _iid_compositions(n - first, parts - 1):
            yield (first,) + rest


def _markov_path_count(start: int, trans: tuple[int, int, int, int]) -> int:
    """Number of binary strings starting at ``start`` with the given counts of
    (00, 01, 10, 11) transitions. Zero when no such path exists."""
    c00, c01, c10, c11 = trans
    if start == 0:
        if c01 == c10:
            r0, r1 = c01 + 1, c01
        elif c01 == c10 + 1:
            r0, r1 = c01, c01
        else:
            return 0
    else:
        if c10 == c01:
            r0, r1 = c10, c10 + 1
        elif c10 == c01 + 1:
            r0, r1 = c10, c10
        else:
            return 0
    if r0 == 0:
        zeros = 1 if c00 == 0 else 0
    else:
        zeros = comb(c00 + r0 - 1, r0 - 1)
    if r1 == 0:
        ones = 1 if c11 == 0 else 0
    else:
        ones = comb(c11 + r1 - 1, r1 - 1)
    return zeros * ones


@lru_cache(maxsize=64)
def _class_table(model: NoiseModel, n: int):
    """Probability classes of length-n sequences, sorted by decreasing
    probability: list of (log_prob, class_key, size) plus cumulative sizes.

    IID class keys are symbol-count vectors; Markov class keys are
    (first_symbol, transition-count 4-tuple).
    """
    entries = []
    if isinstance(model, IIDNoise):
        a = model.alphabet_size
        for counts in _iid_compositions(n, a):
            size = _multinomial(n, counts)
            entries.append((_class_log_prob(model, counts), counts, size))
    else:
        m = n - 1
        for first in (0, 1):
            for c01 in range(m + 1):
                c10_options = (c01, c01 - 1) if first == 0 else (c01, c01 + 1)
                for c10 in c10_options:
                    if c10 < 0 or c01 + c10 > m:
                        continue
                    for c00 in range(m - c01 - c10 + 1):
                        c11 = m - c01 - c10 - c00
                        trans = (c00, c01, c10, c11)
                        size = _markov_path_count(first, trans)
                        if size == 0:
                            continue
                        key = (first, trans)
                        entries.append((_class_log_prob(model, key), key, size))
    entries.sort(key=lambda e: (-e[0], e[1]))
    cum = []
    total = 0
    for _, _, size in entries:
        cum.append(total)
        total += size
    return entries, cum, total


def _iid_count_less(counts: tuple[int, ...], z: tuple[int, ...]) -> int:
    """Sequences in the IID class ``counts`` that are numerically below ``z``."""
    n = len(z)
    remaining = list(counts)
    less = 0
    for i, sym in enumerate(z):
        rem_len = n - i - 1
        for c in range(sym):
            if remaining[c] == 0:
                continue
            remaining[c] -= 1
            less += _multinomial(rem_len, remaining)
            remaining[c] += 1
        if remaining[sym] == 0:
            return less
        remaining[sym] -= 1
    return less


def _markov_count_less(key, z: tuple[int, ...]) -> int:
    """Sequences in the Markov class ``key`` = (first symbol, transition
    counts) that are numerically below ``z``."""
    first, trans = key
    if first < z[0]:
        return _markov_path_count(first, trans)
    if first > z[0]:
        return 0
    remaining = list(trans)
    less = 0
    prev = first
    for sym in z[1:]:
        for c in range(sym):
            idx = 2 * prev + c
            if remaining[idx] == 0:
                continue
            remaining[idx] -= 1
            less += _markov_path_count(c, tuple(remaining))
            remaining[idx] += 1
        idx = 2 * prev + sym
        if remaining[idx] == 0:
            return less
        remaining[idx] -= 1
        prev = sym
    return less


def _iid_class_sequences(counts):
    """All sequences with the given symbol counts, ascending numeric order."""
    a = len(counts)
    remaining = list(counts)
    n = sum(counts)
    prefix = [0] * n

    def rec(i):
        if i == n:
            yield tuple(prefix)
            return
        for s in range(a):
            if remaining[s]:
                remaining[s] -= 1
                prefix[i] = s
                yield from rec(i + 1)
                remaining[s] += 1

    yield from rec(0)


def _markov_class_sequences(key):
    """All binary sequences of the class ``key`` = (first symbol, transition
    counts), ascending numeric order; infeasible branches are pruned."""
    first, trans = key
    n = 1 + sum(trans)
    remaining = list(trans)
    prefix = [0] * n
    prefix[0] = first

    def rec(i, state):
        if i == n:
            yield tuple(prefix)
            return
        for s in (0, 1):
            idx = 2 * state + s
            if remaining[idx] == 0:
                continue
            remaining[idx] -= 1
            if _markov_path_count(s, tuple(remaining)):
                prefix[i] = s
                yield from rec(i + 1, s)
            remaining[idx] += 1

    yield from rec(1, first)


def iter_guesses(model: NoiseModel, n: int):
    """Lazy iterator over (sequence, log_prob) in guess order, O(n) memory.

    Walks the probability-class table instead of keeping a frontier, so long
    decodes do not accumulate state. Within a class, sequences appear in
    ascending numeric order; equal-probability classes are merged so the
    combined stream is numerically ascending too, matching the tie-break.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    entries, _, _ = _class_table(model, n)
    if isinstance(model, IIDNoise):
        class_gen = _iid_class_sequences
    else:
        class_gen = _markov_class_sequences
    return (
        (seq, lp)
        for lp, group in itertools.groupby(entries, key=lambda e: e[0])
        for seq in heapq.merge(*(class_gen(key) for _, key, _ in group))
    )


def guess_rank(model: NoiseModel, z) -> int:
    """Position of ``z`` in the guessing order, in {1, ..., |A|^n}.

    Counts whole probability classes with strictly higher probability, then
    ranks ``z`` numerically among the equal-probability sequences; no
    enumeration of predecessors takes place.
    """
    z = tuple(int(s) for s in z)
    lp_z = _class_log_prob(model, _class_key(model, z))
    entries, cum, _ = _class_table(model, len(z))
    # binary search to the first class in z's tie group
    lo, hi = 0, len(entries)
    while lo < hi:
        mid = (lo + hi) // 2
        if entries[mid][0] > lp_z:
            lo = mid + 1
        else:
            hi = mid
    rank = cum[lo] + 1
    if isinstance(model, IIDNoise):
        count_less = _iid_count_less
    else:
        count_less = _markov_count_less
    while lo < len(entries) and entries[lo][0] == lp_z:
        rank += count_less(entries[lo][1], z)
        lo += 1
    return rank


def cumulative_binomial_layers(n: int, k: int) -> int:
    """l_k: number of binary strings of length n with Hamming weight <= k.

    Exact arbitrary-precision integer; ``k = -1`` gives 0.
    """
    if k < -1 or k > n:
        raise ValueError("k must lie in [-1, n]")
    return sum(comb(n, j) for j in range(k + 1))


# ---------------------------------------------------------------------------
# Scaled cumulant generating function and its Legendre-Fenchel transform.
# ---------------------------------------------------------------------------


def scgf_lambda_N(model: NoiseModel, alpha: float) -> float:
    """Scaled cumulant generating function of (1/n) log G(noise).

    Equals alpha times the Renyi rate at parameter 1/(1+alpha) for alpha > -1
    and minus the min-entropy rate below.
    """
    if alpha <= -1.0:
        return -min_entropy_rate(model)
    if alpha == 0.0:
        return 0.0
    return alpha * renyi_entropy_rate(model, 1.0 / (1.0 + alpha))


def scgf_derivative(model: NoiseModel, alpha: float, h: float | None = None) -> float:
    """Central-difference derivative of the SCGF at ``alpha`` (> -1)."""
    if h is None:
        h = 1e-6 * max(1.0, abs(alpha))
    h = min(h, (alpha + 1.0) / 2.0)
    lo = scgf_lambda_N(model, alpha - h)
    hi = scgf_lambda_N(model, alpha + h)
    return (hi - lo) / (2.0 * h)


def _linear_segment_end(model: NoiseModel) -> float:
    """gamma: the limiting SCGF slope as alpha decreases to -1.

    Captures the growth rate of the set of maximum-probability sequences; zero
    whenever the most likely sequence is unique. Convergence in the offset is
    exponentially fast, so a single evaluation close to -1 suffices.
    """
    return scgf_derivative(model, -1.0 + 1e-4, h=1e-6)


def rate_function_value(model: NoiseModel, x: float) -> float:
    """I(x) = sup over alpha of (x * alpha - SCGF(alpha)): the rate function of
    (1/n) log G(noise). Returns +inf outside [0, 1]."""
    if x < 0.0 or x > 1.0:
        return math.inf
    h_min = min_entropy_rate(model)
    # The branch alpha <= -1 is maximized on its boundary.
    best = h_min - x
    # Bracket the interior supremum: grow the right end until the slope there
    # exceeds x, then run a bounded scalar maximization.
    hi = 1.0
    while scgf_derivative(model, hi) < x and hi < _ALPHA_CAP:
        hi *= 4.0
    hi = min(hi, _ALPHA_CAP)
    res = minimize_scalar(
        lambda a: scgf_lambda_N(model, a) - x * a,
        bounds=(-1.0 + 1e-9, hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    if not res.success:
        raise RuntimeError(f"rate-function optimization failed at x={x}: {res.message}")
    cand = -res.fun
    # The supremum may sit at the expansion cap when x is at the right edge of
    # the achievable-growth support.
    cand = max(cand, x * hi - scgf_lambda_N(model, hi))
    return float(max(best, cand, 0.0))


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
        H=shannon_entropy_rate(model),
        H_half=renyi_entropy_rate(model, 0.5),
        H_min=min_entropy_rate(model),
    )
