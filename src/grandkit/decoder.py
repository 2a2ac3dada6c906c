"""Noise-guessing decoders.

``grand_decode`` walks noise patterns in decreasing-likelihood order, as
``guesswork.guess_groups`` emits them, and asks the codebook, bound once to
the received word y with ``cb.bind(y)``, whether y (-) z is a member; the
first member is a maximum-likelihood decoding. With a query budget, such as
``analysis.abandonment_threshold`` sets, it abandons instead (GRANDAB). A
binary pattern is a packed int, so no tuple is built per guess. For a linear
code this module also owns the guess order's head: ``_leaders`` maps the syndrome
of each pattern in its leading whole tie groups to the first pattern with it (a
truncated coset-leader table), one table per code and model, so one lookup of H y
answers those guesses and the guess stream starts only past them.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from enum import Enum

from .codebook import Codebook, LinearCodebook
from .guesswork import _class_table, guess_groups
from .noise_models import NoiseModel, _positive_int

__all__ = [
    "DecodeStatus",
    "DecodeResult",
    "grand_decode",
]


class DecodeStatus(Enum):
    DECODED = "decoded"
    ABANDONED = "abandoned"


@dataclass(frozen=True, slots=True)
class DecodeResult:
    decoded: tuple[int, ...] | None
    queries: int
    status: DecodeStatus
    decoded_log_prob: float | None


# Most patterns _leaders tabulates; at BSC(0.01), n = 75 it holds weights 0-2
# (2851 patterns), where weight 3 would bring it to 70 376.
_PREFIX_CAP = 2**12


def _leaders(cb: LinearCodebook, model: NoiseModel):
    """The code's answer to the leading guesses: the whole tie groups of
    ``guess_groups(model, n)`` that fit in ``_PREFIX_CAP`` patterns, counted off the class
    table before any is drawn, as {syndrome: (queries, pattern, log_prob) of the first
    pattern with it}, then the number of patterns and of groups. At BSC(0.01), n = 75 its
    2851 patterns have 2845 syndromes under ``build_linear_codebook(75, 54, 1)``. Built at
    the first decode per model and kept on the code, so it dies with it."""
    if (entry := cb._leader_tables.get(model)) is None:
        groups, total, _ = _class_table(model, cb.n)
        # the groups that start within the cap, less the one that crosses it, if any
        count = bisect.bisect_right(groups, _PREFIX_CAP, key=lambda g: g[2]) - (total > _PREFIX_CAP)
        table, size = {}, 0
        for lp, zs in itertools.islice(guess_groups(model, cb.n), count):
            for size, z in enumerate(zs, size + 1):  # a tie group is never empty
                table.setdefault(cb._syndrome(z), (size, z, lp))
        entry = cb._leader_tables[model] = (table, size, count)
    return entry


def grand_decode(
    cb: Codebook, y, model: NoiseModel, max_queries: int | None = None
) -> DecodeResult:
    """Return the first y (-) z in guess order that is a codebook member.

    With ``max_queries`` set, gives up after that many membership tests and
    reports abandonment instead (the GRANDAB behavior).
    """
    if cb.size == 0:
        raise ValueError("codebook is empty")
    if model.alphabet_size != cb.alphabet_size:
        raise ValueError("model and codebook alphabets disagree")
    if max_queries is not None:
        max_queries = _positive_int("max_queries", max_queries)
    hit, queries, skip = cb.bind(y), 0, 0
    if isinstance(cb, LinearCodebook):
        # the walk would test the head's first ``queries`` patterns; one lookup does
        table, size, skip = _leaders(cb, model)
        queries = size if max_queries is None else min(max_queries, size)
        if (first := table.get(hit.syndrome)) is not None and first[0] <= queries:
            return DecodeResult(hit(first[1]), first[0], DecodeStatus.DECODED, first[2])
        if queries == max_queries:
            return DecodeResult(None, queries, DecodeStatus.ABANDONED, None)
    for lp, patterns in itertools.islice(guess_groups(model, cb.n), skip, None):
        for z in patterns:
            queries += 1
            codeword = hit(z)
            if codeword is not None:
                return DecodeResult(codeword, queries, DecodeStatus.DECODED, lp)
            if queries == max_queries:
                return DecodeResult(None, queries, DecodeStatus.ABANDONED, None)
    # unreached: the walk holds every z, -inf classes too, so it meets y (-) z for a codeword
