"""Noise-sequence enumeration in likelihood order, and the rank of a sequence in it.

``guess_groups`` emits every length-n sequence exactly once, from most likely
to least likely, breaking probability ties by ascending numeric value of the
sequence read as a base-|A| integer (most significant symbol first); binary
sequences come as packed ints, and ``iter_guesses`` unpacks them. The same
order is computed without enumeration by ``guess_rank``, which counts whole
probability classes at once, so ranks stay exact even when they are
astronomically large. Enumeration (``_class_members``) and rank (``_count_less``)
walk one class description, ``_class_walk``; binary IID noise has closed forms.

This module says what a class is (``_class_key``), how likely (``_class_log_prob``: equal
factors are summed as one term, and a stationary chain's class is read through its reversal,
so classes tied that way share one float), which tie group holds it (``_class_table``, its
one cache, where ``guess_rank`` looks z's class key up), and how its members are listed and
ranked. Classes whose distinct factors multiply to one real value may still land in adjacent
groups; both enumeration and rank read the table's groups, so they still agree there.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from math import comb

from .noise_models import (
    IIDNoise,
    NoiseModel,
    _checked,
    _pack,
    _positive_int,
    _symbols,
    _unpack,
)

__all__ = [
    "guess_groups",
    "iter_guesses",
    "guess_rank",
]


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


def _class_key(model: NoiseModel, z):
    """Probability class of the word ``z``, bytes of the alphabet's symbols (an int tuple past
    256 of them), read off it with C-level counts: its symbol counts for IID noise, or (first
    symbol, (c00, c01, c10, c11) transition counts) for Markov noise."""
    if isinstance(model, IIDNoise):
        return tuple(map(z.count, range(model.alphabet_size)))
    c01, c10 = z.count(b"\0\1"), z.count(b"\1\0")
    c00 = z.count(0, 0, -1) - c01  # the zeros before the last symbol, less those followed by a 1
    return z[0], (c00, c01, c10, len(z) - 1 - c00 - c01 - c10)


def _class_log_prob(model: NoiseModel, key) -> float:
    """Base-|A| log probability of every sequence of class ``key``. Classes tied by equal
    factors or by reversal get one float: equal factors are summed as one term, and a
    stationary chain, which gives a string and its reverse one law, reads the smaller key."""
    if isinstance(model, IIDNoise):
        factors = zip(model.symbol_log_probs, key)
    else:
        if model.initial is None:
            first, (c00, c01, c10, c11) = key
            key = min(key, (first + c01 - c10, (c00, c10, c01, c11)))
        first, counts = key
        init = model.initial_dist[first]
        if init <= 0.0:
            return -math.inf
        factors = [(math.log2(init), 1), *zip(model.transition_log_probs, counts)]
    terms = {}
    for l, c in factors:
        terms[l] = terms.get(l, 0) + c
    lp = 0.0
    for l, c in terms.items():  # a loop: sum() compensates from Python 3.12 on
        if c:
            lp += c * l
    return lp


@lru_cache(maxsize=64)
def _class_table(model: NoiseModel, n: int):
    """The tie groups of length-n sequences, most likely first, |A|^n, and each class
    key's group position: per group of equally likely classes, (log_prob, [(class_key,
    size), ...], the number of sequences before it). Enumeration, rank and the decoder's
    syndrome table read these groups; only this build calls ``_class_log_prob``.
    """
    table = {}  # log_prob -> its tie group's [(class_key, size), ...]
    if isinstance(model, IIDNoise):
        heads = [()]  # every count vector's first |A| - 2 counts; the last two split the rest
        for _ in range(model.alphabet_size - 2):
            heads = [h + (c,) for h in heads for c in range(n + 1 - sum(h))]
        for counts in (h + (c, n - sum(h) - c) for h in heads for c in range(n + 1 - sum(h))):
            size = _multinomial(counts)
            table.setdefault(_class_log_prob(model, counts), []).append((counts, size))
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
                        table.setdefault(_class_log_prob(model, key), []).append((key, size))
    groups, before = [], 0
    for lp in sorted(table, reverse=True):
        groups.append((lp, table[lp], before))
        before += sum(size for _, size in table[lp])
    group_of = {key: i for i, (_, members, _) in enumerate(groups) for key, _ in members}
    return groups, before, group_of


def _class_walk(model: NoiseModel, key):
    """The class ``key`` as enumeration and rank both walk it: the prefix
    every member starts with, the counts left after it, the stride that maps
    a step from ``prev`` to ``s`` onto the count ``stride * prev + s`` it
    spends, and how many ways there are to finish once ``s`` is placed."""
    if isinstance(model, IIDNoise):
        return (), list(key), 0, lambda s, rest: _multinomial(rest)
    first, trans = key
    return (first,), list(trans), 2, _markov_path_count


def _count_less(model: NoiseModel, key, z: tuple[int, ...]) -> int:
    """Sequences in the class ``key`` that are numerically below ``z``: the
    members ``_class_members`` would yield before z, counted, not walked."""
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


def _class_members(model: NoiseModel, key):
    """All sequences of the class ``key``, ascending, read off ``_class_walk``:
    the tail takes the smallest symbols the class can still be finished with,
    then backs up from the right to the first position that can take a larger
    one. Binary sequences are packed ints, others int tuples."""
    head, remaining, stride, ways = _class_walk(model, key)
    a, start = model.alphabet_size, len(head)
    n = start + sum(remaining)
    seq = list(head) + [0] * (n - start)
    symbols, last = range(a), a - 1
    i = start - 1
    while True:
        for j in range(i + 1, n):
            base = stride * seq[j - 1]  # seq[-1] is read only when stride is 0
            for s in symbols:
                if remaining[base + s]:
                    remaining[base + s] -= 1
                    # the class can be finished, so s fits with stride 0 or when no
                    # larger symbol has a count left (stride > 0 is the binary chain)
                    fits = not stride or s == last or not remaining[base + s + 1]
                    if fits or ways(s, remaining):
                        break
                    remaining[base + s] += 1
            seq[j] = s
        yield _pack(seq) if a == 2 else tuple(seq)
        for i in range(n - 1, start - 1, -1):
            base = stride * seq[i - 1]
            s = seq[i]
            remaining[base + s] += 1
            while s < last:
                s += 1
                if remaining[base + s]:
                    remaining[base + s] -= 1
                    if not stride or ways(s, remaining):
                        seq[i] = s
                        break
                    remaining[base + s] += 1
            else:
                continue
            break
        else:
            return


def guess_groups(model: NoiseModel, n: int):
    """Lazy iterator over (log_prob, patterns) in guess order, O(n) memory:
    one item per group of equal-probability classes, whose sequences the
    merge yields in ascending numeric order, the tie-break. Binary sequences
    are packed ints, others int tuples. Walks the class table, not a frontier,
    so long decodes accumulate no state."""
    groups, _, _ = _class_table(model, _positive_int("n", n))
    binary_iid = isinstance(model, IIDNoise) and model.alphabet_size == 2
    members = _weight_patterns if binary_iid else lambda key: _class_members(model, key)
    return ((lp, heapq.merge(*(members(key) for key, _ in group))) for lp, group, _ in groups)


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

    Reads z once, as bytes (an int tuple past 256 symbols), through ``_checked``, the
    boundary check it shares with codebook membership. Finds z's tie group by its class key,
    counts the sequences of the groups ahead of it, then ranks ``z`` numerically within its
    group, class by class; no enumeration of predecessors takes place.
    """
    if not hasattr(z, "__len__"):
        z = tuple(z)  # an iterator, read into a word the error below can read again
    if (word := _checked(z, a := model.alphabet_size)) is None:
        ints = _symbols(z) is not None
        raise ValueError("symbol outside alphabet" if ints else "symbols must be integers")
    if not word:
        raise ValueError("empty sequence")
    packed = _pack(word) if a == 2 and isinstance(model, IIDNoise) else None
    # a packed binary word's class is its weight
    cls = _class_key(model, word) if packed is None else (len(word) - (w := packed.bit_count()), w)
    groups, _, group_of = _class_table(model, len(word))
    _, members, rank = groups[group_of[cls]]
    for key, _ in members:
        rank += (_count_less(model, key, tuple(word)) if packed is None
                 else _weight_less(packed, key[1]))
    return rank + 1
