"""Noise-guessing decoders.

``grand_decode`` walks noise sequences in decreasing-likelihood order,
subtracting each from the received word until a codebook member appears; that
member is a maximum-likelihood decoding. ``grandab_decode`` is the same loop
with a query budget, declaring an error on abandonment. ``brute_force_ml``
scans an explicit codebook directly and serves as the equivalence oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import mpmath

from .codebook import Codebook, ExplicitCodebook
from .guesswork import iter_guesses
from .noise_models import NoiseModel, sequence_log_prob

__all__ = [
    "DecodeStatus",
    "DecodeResult",
    "grand_decode",
    "grandab_decode",
    "abandonment_threshold",
    "brute_force_ml",
]


class DecodeStatus(Enum):
    DECODED = "decoded"
    ABANDONED = "abandoned"


@dataclass(frozen=True)
class DecodeResult:
    decoded: tuple[int, ...] | None
    queries: int
    status: DecodeStatus
    decoded_log_prob: float | None


def _subtract(y, z, alphabet_size: int) -> tuple[int, ...]:
    """Per-symbol inverse of the channel's modular addition (XOR when binary)."""
    return tuple((a - b) % alphabet_size for a, b in zip(y, z))


def grand_decode(
    cb: Codebook, y, model: NoiseModel, max_queries: int | None = None
) -> DecodeResult:
    """Return the first y (-) z in guess order that is a codebook member.

    With ``max_queries`` set, gives up after that many membership tests and
    reports abandonment instead (the GRANDAB behavior).
    """
    y = tuple(int(s) for s in y)
    if cb.size == 0:
        raise ValueError("codebook is empty")
    if len(y) != cb.n:
        raise ValueError("received word length mismatch")
    if model.alphabet_size != cb.alphabet_size:
        raise ValueError("model and codebook alphabets disagree")
    if max_queries is not None and max_queries < 1:
        raise ValueError("max_queries must be >= 1")
    a = model.alphabet_size
    queries = 0
    for z, lp in iter_guesses(model, cb.n):
        queries += 1
        candidate = _subtract(y, z, a)
        if cb.contains(candidate):
            return DecodeResult(
                decoded=candidate,
                queries=queries,
                status=DecodeStatus.DECODED,
                decoded_log_prob=lp,
            )
        if max_queries is not None and queries >= max_queries:
            return DecodeResult(
                decoded=None,
                queries=queries,
                status=DecodeStatus.ABANDONED,
                decoded_log_prob=None,
            )
    raise AssertionError("guess enumeration exhausted with a non-empty codebook")


def grandab_decode(
    cb: Codebook, y, model: NoiseModel, max_queries: int
) -> DecodeResult:
    """Abandoning variant: identical to :func:`grand_decode` up to the budget."""
    return grand_decode(cb, y, model, max_queries=max_queries)


def abandonment_threshold(
    n: int, H: float, delta: float, exponent_cap: float = 64.0
) -> int:
    """Query budget ceil(|A|^(n(H + delta))), clamped to |A|^n.

    ``H`` and ``delta`` are in base-|A| units for a binary alphabet (the only
    one the budget rule is used with). The cap bounds the exponent of the
    returned integer so a typo cannot request astronomical budgets.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    exponent = n * min(H + delta, 1.0)
    if exponent > exponent_cap:
        raise ValueError(
            f"abandonment exponent {exponent:.1f} exceeds cap {exponent_cap}"
        )
    with mpmath.workdps(40):
        t = int(mpmath.ceil(mpmath.mpf(2) ** exponent))
    return min(t, 2**n)


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
