"""Noise-sequence enumeration in likelihood order and its large-deviation analytics.

``guess_groups`` emits every length-n sequence exactly once, from most likely
to least likely, breaking probability ties by ascending numeric value of the
sequence read as a base-|A| integer (most significant symbol first); binary
sequences come as packed ints, and ``iter_guesses`` unpacks them. The same
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
    _pack,
    _symbols,
    _unpack,
    min_entropy_rate,
    renyi_entropy_rate,
    shannon_entropy_rate,
)

__all__ = [
    "guess_groups",
    "iter_guesses",
    "guess_rank",
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


def _multinomial(counts) -> int:
    """Number of sequences with the given symbol counts."""
    out, rem = 1, 0
    for c in counts:
        rem += c
        out *= comb(rem, c)
    return out


def _iid_compositions(n: int, parts: int):
    """All count vectors of length ``parts`` summing to ``n``."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _iid_compositions(n - first, parts - 1):
            yield (first,) + rest


def _markov_path_count(start: int, trans) -> int:
    """Number of binary strings starting at ``start`` with the given counts of
    (00, 01, 10, 11) transitions, given as a tuple or a list. Zero when no
    such path exists.

    Complementing a string swaps 00 with 11 and 01 with 10, so a string that
    starts at 1 is counted as a start-0 string of the reversed counts.
    """
    c00, c01, c10, c11 = trans[::-1] if start else trans
    if c01 - c10 not in (0, 1):
        return 0
    # c10 + 1 runs of zeros share the c00 zeros that follow a zero, and c01
    # runs of ones share the c11 ones that follow a one.
    ones = comb(c11 + c01 - 1, c01 - 1) if c01 else int(c11 == 0)
    return comb(c00 + c10, c10) * ones


@lru_cache(maxsize=64)
def _class_table(model: NoiseModel, n: int):
    """Probability classes of length-n sequences, sorted by decreasing
    probability: list of (log_prob, class_key, size), and the number of
    sequences in the classes before each one.

    IID class keys are symbol-count vectors; Markov class keys are
    (first_symbol, transition-count 4-tuple).
    """
    entries = []
    if isinstance(model, IIDNoise):
        a = model.alphabet_size
        for counts in _iid_compositions(n, a):
            size = _multinomial(counts)
            entries.append((_class_log_prob(model, counts), counts, size))
    else:
        m = n - 1
        for c10 in range(m // 2 + 1):
            for c01 in (c10, c10 + 1):
                for c00 in range(m - c01 - c10 + 1):
                    trans = (c00, c01, c10, m - c01 - c10 - c00)
                    size = _markov_path_count(0, trans)
                    if size == 0:
                        continue
                    # the complement class starts at 1 and has the same size
                    for key in ((0, trans), (1, trans[::-1])):
                        entries.append((_class_log_prob(model, key), key, size))
    entries.sort(key=lambda e: (-e[0], e[1]))
    return entries, list(itertools.accumulate((e[2] for e in entries), initial=0))


def _class_walk(model: NoiseModel, key):
    """What the rank walk needs to know about the class ``key``: the prefix
    every member starts with, the counts left after it, the stride that maps
    a step from ``prev`` to ``s`` onto the count ``stride * prev + s`` it
    spends, and how many ways there are to finish once ``s`` is placed."""
    if isinstance(model, IIDNoise):
        return (), list(key), 0, lambda s, rest: _multinomial(rest)
    first, trans = key
    return (first,), list(trans), 2, _markov_path_count


def _count_less(model: NoiseModel, key, z: tuple[int, ...]) -> int:
    """Sequences in the class ``key`` that are numerically below ``z``."""
    head, remaining, stride, ways = _class_walk(model, key)
    lead = z[: len(head)]
    if head != lead:
        return ways(head[-1], remaining) if head < lead else 0
    less = 0
    prev = head[-1] if head else 0
    for sym in z[len(head) :]:
        base = stride * prev
        for c in range(sym):
            if remaining[base + c]:
                remaining[base + c] -= 1
                less += ways(c, remaining)
                remaining[base + c] += 1
        if remaining[base + sym] == 0:
            return less
        remaining[base + sym] -= 1
        prev = sym
    return less


def _iid_class_sequences(counts):
    """All sequences with the given symbol counts, ascending numeric order:
    each is the lexicographic successor of the one before."""
    seq = [s for s, c in enumerate(counts) for _ in range(c)]
    last = len(seq) - 1
    while True:
        yield tuple(seq)
        i = last - 1
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = seq[: i : -1]


def _weight_patterns(counts):
    """All packed binary patterns with the given symbol counts, ascending: each
    is the next larger int with as many set bits (Gosper's step)."""
    n, w = sum(counts), counts[1]
    z = (1 << w) - 1
    last = z << (n - w)
    yield z
    while z != last:
        low = z & -z
        carry = z + low
        z = carry | ((carry ^ z) >> 2) // low
        yield z


def _markov_class_patterns(key):
    """All packed binary patterns of the class ``key`` = (first symbol,
    transition counts), ascending: to get the next one, the rightmost 0 that
    can become a 1 does, and the smallest tail that still completes the class
    follows it. ``head[j]`` is the packed prefix of the first j + 1 symbols."""
    first, trans = key
    n = 1 + sum(trans)
    head = [first] * n
    remaining = list(trans)
    i = 0
    while True:
        # smallest tail after symbol i: a 0 wherever the class can still follow it
        for j in range(i + 1, n):
            idx = 2 * (head[j - 1] & 1)
            remaining[idx] -= 1
            if remaining[idx] < 0 or not _markov_path_count(0, remaining):
                remaining[idx] += 1
                idx += 1
                remaining[idx] -= 1
            head[j] = head[j - 1] << 1 | idx & 1
        yield head[-1]
        # hand transitions back from the right until a 0 can become a 1
        for i in range(n - 1, 0, -1):
            idx = 2 * (head[i - 1] & 1) + (head[i] & 1)
            remaining[idx] += 1
            if not idx & 1 and remaining[idx + 1]:
                remaining[idx + 1] -= 1
                if _markov_path_count(1, remaining):
                    head[i] |= 1
                    break
                remaining[idx + 1] += 1
        else:
            return


def guess_groups(model: NoiseModel, n: int):
    """Lazy iterator over (log_prob, patterns) in guess order, O(n) memory:
    one item per group of equal-probability classes, whose sequences the
    merge yields in ascending numeric order, the tie-break. Binary sequences
    are packed ints, others int tuples. Walks the class table, not a frontier,
    so long decodes accumulate no state."""
    if n < 1:
        raise ValueError("n must be >= 1")
    entries, _ = _class_table(model, n)
    if isinstance(model, IIDNoise):
        class_gen = _weight_patterns if model.alphabet_size == 2 else _iid_class_sequences
    else:
        class_gen = _markov_class_patterns
    return (
        (lp, heapq.merge(*(class_gen(key) for _, key, _ in group)))
        for lp, group in itertools.groupby(entries, key=lambda e: e[0])
    )


def iter_guesses(model: NoiseModel, n: int):
    """Lazy iterator over (int tuple, log_prob) in guess order."""
    groups = guess_groups(model, n)
    if model.alphabet_size == 2:
        return ((_unpack(z, n), lp) for lp, zs in groups for z in zs)
    return ((z, lp) for lp, zs in groups for z in zs)


def _weight_less(z: int, w: int) -> int:
    """Packed patterns of weight ``w`` numerically below the packed ``z``.

    One that first differs from z at a set bit b of z has a 0 there, the
    ``above`` ones z has over b, and its other w - above ones anywhere in the
    b bits below: comb(b, w - above) of them (the combinatorial number
    system; ``_count_less``'s multinomial walk in closed form).
    """
    less, above = 0, 0
    while z and above <= w:
        b = z.bit_length() - 1
        less += comb(b, w - above)
        z ^= 1 << b
        above += 1
    return less


def guess_rank(model: NoiseModel, z) -> int:
    """Position of ``z`` in the guessing order, in {1, ..., |A|^n}.

    Counts whole probability classes with strictly higher probability, then
    ranks ``z`` numerically among the equal-probability sequences; no
    enumeration of predecessors takes place.
    """
    z = _symbols(z)
    if z is None:
        raise ValueError("symbols must be integers")
    lp_z = _class_log_prob(model, _class_key(model, z))
    entries, cum = _class_table(model, len(z))
    # binary search to the first class in z's tie group
    lo, hi = 0, len(entries)
    while lo < hi:
        mid = (lo + hi) // 2
        if entries[mid][0] > lp_z:
            lo = mid + 1
        else:
            hi = mid
    rank = cum[lo] + 1
    packed = _pack(z) if isinstance(model, IIDNoise) and model.alphabet_size == 2 else None
    while lo < len(entries) and entries[lo][0] == lp_z:
        key = entries[lo][1]
        rank += _count_less(model, key, z) if packed is None else _weight_less(packed, key[1])
        lo += 1
    return rank


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
