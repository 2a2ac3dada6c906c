"""Noise laws for additive discrete channels.

Two models are supported: IID noise over a finite alphabet and a binary
two-state Markov chain. All entropy rates are reported in logarithms of base
equal to the alphabet size, so a maximally random source has rate 1. Natural
logs never leave this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IIDNoise",
    "BinaryMarkovNoise",
    "bsc",
    "shannon_entropy_rate",
    "renyi_entropy_rate",
    "min_entropy_rate",
    "model_error_probability",
    "sequence_log_prob",
    "sample_noise",
]

_PMF_TOL = 1e-12


def _binary_entropy(p: float) -> float:
    """Binary Shannon entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class IIDNoise:
    """IID noise: each symbol drawn independently from ``pmf`` over {0..A-1}."""

    pmf: tuple[float, ...]

    def __post_init__(self):
        if len(self.pmf) < 2:
            raise ValueError("alphabet must have at least 2 symbols")
        if any(p < 0.0 for p in self.pmf):
            raise ValueError("pmf entries must be non-negative")
        if abs(sum(self.pmf) - 1.0) > _PMF_TOL:
            raise ValueError("pmf must sum to 1")

    @property
    def alphabet_size(self) -> int:
        return len(self.pmf)

    @property
    def symbol_log_probs(self) -> tuple[float, ...]:
        a = self.alphabet_size
        return tuple(
            math.log(p) / math.log(a) if p > 0.0 else -math.inf for p in self.pmf
        )


@dataclass(frozen=True)
class BinaryMarkovNoise:
    """Binary noise chain with transition matrix rows (1-a, a) and (b, 1-b).

    ``initial`` is either the stationary distribution (default) or an explicit
    pair of start probabilities. The stationary law is (b, a) / (a + b).
    """

    a: float
    b: float
    initial: tuple[float, float] | None = None

    def __post_init__(self):
        if not (0.0 < self.a < 1.0 and 0.0 < self.b < 1.0):
            raise ValueError("transition probabilities must lie in (0, 1)")
        if self.initial is not None:
            if len(self.initial) != 2 or any(p < 0.0 for p in self.initial):
                raise ValueError("initial distribution must be a probability pair")
            if abs(sum(self.initial) - 1.0) > _PMF_TOL:
                raise ValueError("initial distribution must sum to 1")

    @property
    def alphabet_size(self) -> int:
        return 2

    @property
    def stationary(self) -> tuple[float, float]:
        s = self.a + self.b
        return (self.b / s, self.a / s)

    @property
    def initial_dist(self) -> tuple[float, float]:
        return self.initial if self.initial is not None else self.stationary

    @property
    def transition_log_probs(self) -> tuple[float, float, float, float]:
        """Base-2 logs of (P00, P01, P10, P11)."""
        return (
            math.log2(1.0 - self.a),
            math.log2(self.a),
            math.log2(self.b),
            math.log2(1.0 - self.b),
        )

    @property
    def stationary_flip_probability(self) -> float:
        """Long-run fraction of 1 symbols (per-bit noise probability)."""
        return self.a / (self.a + self.b)


NoiseModel = IIDNoise | BinaryMarkovNoise


def bsc(p: float) -> IIDNoise:
    """Binary symmetric channel noise with flip probability ``p``."""
    return IIDNoise((1.0 - p, p))


def shannon_entropy_rate(model: NoiseModel) -> float:
    """Shannon entropy rate of the noise, base |A|."""
    if isinstance(model, IIDNoise):
        log_a = math.log2(model.alphabet_size)
        h = -sum(p * math.log2(p) for p in model.pmf if p > 0.0)
        return h / log_a
    a, b = model.a, model.b
    return (_binary_entropy(a) * b + _binary_entropy(b) * a) / (a + b)


def renyi_entropy_rate(model: NoiseModel, alpha: float) -> float:
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


def min_entropy_rate(model: NoiseModel) -> float:
    """Min-entropy rate: the large-alpha limit of the Renyi rate, base |A|.

    For the Markov chain this is minus the log of the best per-step growth,
    attained by staying in a state or alternating between the two.
    """
    if isinstance(model, IIDNoise):
        return -math.log2(max(model.pmf)) / math.log2(model.alphabet_size)
    a, b = model.a, model.b
    return -math.log2(max(1.0 - a, 1.0 - b, math.sqrt(a * b)))


def model_error_probability(model: NoiseModel) -> float:
    """Per-symbol probability that the noise is non-zero."""
    if isinstance(model, IIDNoise):
        return 1.0 - model.pmf[0]
    return model.stationary_flip_probability


def sequence_log_prob(model: NoiseModel, z) -> float:
    """Base-|A| log probability of the symbol sequence ``z`` under ``model``.

    Computed canonically from the sequence's probability class, so sequences
    in the same class get bit-identical values.
    """
    z = tuple(int(s) for s in z)
    return _class_log_prob(model, _class_key(model, z))


def _class_key(model: NoiseModel, z: tuple[int, ...]):
    """Probability class of the int tuple ``z``: its symbol counts for IID
    noise, or (first symbol, (c00, c01, c10, c11) transition counts) for
    Markov noise."""
    if not z:
        raise ValueError("empty sequence")
    a = model.alphabet_size
    if min(z) < 0 or max(z) >= a:
        raise ValueError("symbol outside alphabet")
    if isinstance(model, IIDNoise):
        return tuple(z.count(s) for s in range(a))
    trans = [0, 0, 0, 0]
    for prev, cur in zip(z, z[1:]):
        trans[2 * prev + cur] += 1
    return z[0], tuple(trans)


def _class_log_prob(model: NoiseModel, key) -> float:
    """Base-|A| log probability shared by every sequence of class ``key``,
    summed in a fixed order."""
    if isinstance(model, IIDNoise):
        lp = 0.0
        counts, logs = key, model.symbol_log_probs
    else:
        first, counts = key
        init = model.initial_dist[first]
        if init <= 0.0:
            return -math.inf
        lp = math.log2(init)
        logs = model.transition_log_probs
    for c, l in zip(counts, logs):
        if c:
            lp += c * l
    return lp


def sample_noise(model: NoiseModel, n: int, rng_seed: int) -> np.ndarray:
    """Draw a length-``n`` noise realization, deterministic in ``rng_seed``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(rng_seed)
    return sample_noise_with(model, n, rng)


def sample_noise_with(model: NoiseModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Like :func:`sample_noise` but drawing from a caller-owned generator."""
    if isinstance(model, IIDNoise):
        return rng.choice(model.alphabet_size, size=n, p=model.pmf).astype(np.uint8)
    out = np.empty(n, dtype=np.uint8)
    u = rng.random(n)
    state = 0 if u[0] < model.initial_dist[0] else 1
    out[0] = state
    stay = (1.0 - model.a, 1.0 - model.b)
    for i in range(1, n):
        if u[i] < stay[state]:
            pass
        else:
            state = 1 - state
        out[i] = state
    return out
