"""Noise-guessing decoders.

``grand_decode`` walks noise patterns in decreasing-likelihood order, as
``guesswork.guess_groups`` emits them, and asks the codebook, bound once to
the received word y with ``cb.bind(y)``, whether y (-) z is a member; the
first member is a maximum-likelihood decoding. With a query budget, such as
``analysis.abandonment_threshold`` sets, it abandons instead (GRANDAB). A
binary pattern is a packed int, so no tuple is built per guess. A linear code
answers the leading guesses with one lookup (``LinearCodebook._leaders``); the
guess stream starts only past them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .codebook import Codebook, LinearCodebook
from .guesswork import guess_groups
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
        # the walk would test the first ``queries`` prefix patterns; one lookup does
        leaders, prefix, log_probs, skip = cb._leaders(model)
        i = leaders.get(hit.syndrome)
        queries = len(prefix) if max_queries is None else min(max_queries, len(prefix))
        if i is not None and i < queries:
            return DecodeResult(hit(prefix[i]), i + 1, DecodeStatus.DECODED, log_probs[i])
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
