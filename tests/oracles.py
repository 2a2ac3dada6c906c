"""Independent reference implementations the tests check the library against.

Each oracle keeps its own walk over the sequences or weight layers, so it
cannot share a fault with the code it checks. They live here, not in the
package, because no library path uses them.
"""

import heapq
from math import comb

import mpmath

from grandkit.noise_models import IIDNoise, NoiseModel, _class_log_prob


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


def bsc_success_prob_fine_exact(n: int, R: float, p: float, dps: int = 80) -> float:
    """P(correct decoding) of ``grandkit.analysis.bsc_success_prob_fine``,
    summed over every weight layer in extended precision with exact layer
    integers; reference path for validating the float implementation."""
    with mpmath.workdps(dps):
        c = mpmath.mpf(2) ** (-mpmath.mpf(n) * (1 - mpmath.mpf(R)))
        denom = -mpmath.expm1(-c)
        pp = mpmath.mpf(p)
        total = mpmath.mpf(0)
        prev_l = 0
        for k in range(n + 1):
            l_k = prev_l + comb(n, k)
            q_k = pp**k * (1 - pp) ** (n - k)
            e_lo = mpmath.e ** (-(prev_l + 1) * c)
            e_hi = mpmath.e ** (-(l_k + 1) * c)
            total += q_k * (e_lo - e_hi) / denom
            prev_l = l_k
        return float(total)
