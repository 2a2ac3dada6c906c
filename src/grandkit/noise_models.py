"""Noise laws for additive discrete channels.

Two models are supported: IID noise over a finite alphabet and a binary
two-state Markov chain. All entropy rates are reported in logarithms of base
equal to the alphabet size, so a maximally random source has rate 1. Natural
logs never leave this module. It also holds the shared value checks, the word check
``_checked`` that rank and codebook membership share, and binary pattern packing; the
probability classes of sequences live in ``guesswork``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul

import numpy as np

__all__ = [
    "IIDNoise",
    "BinaryMarkovNoise",
    "bsc",
    "shannon_entropy_rate",
    "renyi_entropy_rate",
    "min_entropy_rate",
    "model_error_probability",
    "sample_noise_with",
]

_PMF_TOL = 1e-12


class _RenyiCurve:
    """Constants of the Renyi log-sum L(rho), kept on the model from its first use: the
    natural logs L is built from, their max ``top``, the logs minus ``top`` and ln|A|
    (``_log_terms``); (L, L') at rho = 0, the support edge L(0) = log_|A| #{p_i > 0} of
    I_N, and at the powers of two rho >= 1 that root brackets double through (``_points``)."""

    @cached_property
    def _log_terms(self) -> tuple[tuple[float, ...], float, tuple[float, ...], float]:
        if isinstance(self, IIDNoise):
            logs = tuple(math.log(p) for p in self.pmf if p > 0.0)
        else:
            # [P_ij^rho] has the eigenvalues of the symmetric [[d1, c], [c, d2]]
            # whose entries are the exps of rho times these
            ab = self.a * self.b  # 0 only when both are tiny: then the logs are added
            logs = (math.log1p(-self.a), math.log1p(-self.b),
                    0.5 * (math.log(ab) if ab else math.log(self.a) + math.log(self.b)))
        top = max(logs)
        return logs, top, tuple(l - top for l in logs), math.log(self.alphabet_size)

    @cached_property
    def _points(self) -> dict[float, tuple[float, float]]:
        return {}

    def __hash__(self) -> int:  # set once: the rank and decoder caches hash on every lookup
        return self._hash


@dataclass(frozen=True)
class IIDNoise(_RenyiCurve):
    """IID noise: each symbol drawn independently from ``pmf`` over {0..A-1}."""

    pmf: tuple[float, ...]
    __hash__ = _RenyiCurve.__hash__  # kept: the dataclass's own would hash the pmf per call

    def __post_init__(self):
        # a tuple, so the model hashes for the caches keyed on it
        object.__setattr__(self, "pmf", tuple(self.pmf))
        _alphabet_size(len(self.pmf))
        # written so that NaN fails them
        if not all(p >= 0.0 for p in self.pmf):
            raise ValueError("pmf entries must be non-negative numbers")
        if not abs(sum(self.pmf) - 1.0) <= _PMF_TOL:
            raise ValueError("pmf must sum to 1")
        object.__setattr__(self, "_hash", hash(self.pmf))  # numbers: alike in every process

    @cached_property  # read by every decode and rank
    def alphabet_size(self) -> int:
        return len(self.pmf)

    @cached_property
    def symbol_log_probs(self) -> tuple[float, ...]:
        a = self.alphabet_size
        return tuple(
            math.log(p) / math.log(a) if p > 0.0 else -math.inf for p in self.pmf
        )

    @cached_property
    def _cdf(self) -> np.ndarray:
        """The cumulative pmf divided by its last entry, read-only, as ``Generator.choice``
        builds it from ``p``: uniforms searched in it give ``choice``'s draws."""
        cdf = np.array(self.pmf, dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        return cdf


@dataclass(frozen=True)
class BinaryMarkovNoise(_RenyiCurve):
    """Binary noise chain with transition matrix rows (1-a, a) and (b, 1-b).

    ``initial`` is either the stationary distribution (default) or an explicit
    pair of start probabilities. The stationary law is (b, a) / (a + b).
    """

    a: float
    b: float
    initial: tuple[float, float] | None = None
    __hash__ = _RenyiCurve.__hash__

    def __post_init__(self):
        if not (0.0 < self.a < 1.0 and 0.0 < self.b < 1.0):
            raise ValueError("transition probabilities must lie in (0, 1)")
        if self.initial is not None:
            # a tuple, so the model hashes for the caches keyed on it
            object.__setattr__(self, "initial", tuple(self.initial))
            if len(self.initial) != 2 or not all(p >= 0.0 for p in self.initial):
                raise ValueError("initial distribution must be a probability pair")
            if not abs(sum(self.initial) - 1.0) <= _PMF_TOL:
                raise ValueError("initial distribution must sum to 1")
        object.__setattr__(self, "_hash", hash((self.a, self.b, self.initial_dist)))

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
        return tuple(map(math.log2, (1.0 - self.a, self.a, self.b, 1.0 - self.b)))

    @property
    def stationary_flip_probability(self) -> float:
        """Long-run fraction of 1 symbols (per-bit noise probability)."""
        return self.a / (self.a + self.b)


NoiseModel = IIDNoise | BinaryMarkovNoise


def bsc(p: float) -> IIDNoise:
    """Binary symmetric channel noise with flip probability ``p``."""
    return IIDNoise((1.0 - p, p))


def _renyi_log_sum(model: NoiseModel, rho: float) -> tuple[float, float]:
    """(L, L') at ``rho`` >= 0, base |A|: L(rho) = log sum p_i^rho for IID
    noise, the log of the Perron root of [P_ij^rho] for the Markov chain.

    L is convex, with L(rho) = (1 - rho) H_rho, L(1) = 0 and -L'(1) = H; every entropy
    rate below is read off it. Each term is scaled by the dominant one, so large rho
    neither underflows nor loses the derivative. The shifted logs are taken once per model
    (``_log_terms``), as are the points at rho = 0 and at powers of two >= 1 (``_points``).
    """
    if (point := model._points.get(rho)) is not None:
        return point
    logs, top, shifted, log_a = model._log_terms
    w = [math.exp(rho * s) for s in shifted]
    if isinstance(model, IIDNoise):
        lam = sum(w)
        dlam = sum(map(mul, w, logs))
    else:
        (l1, l2, lc), (d1, d2, c) = logs, w
        root = math.hypot(d1 - d2, 2.0 * c)
        lam = (d1 + d2 + root) / 2.0
        cross = ((d1 - d2) * (d1 * l1 - d2 * l2) + 4.0 * c * c * lc) / root if root else 0.0
        dlam = (d1 * l1 + d2 * l2 + cross) / 2.0
    point = (rho * top + math.log(lam)) / log_a, dlam / lam / log_a
    if not rho or rho >= 1.0 and math.frexp(rho)[0] == 0.5:  # rho = 0 or a bracket's doubling
        model._points[rho] = point
    return point


@lru_cache(maxsize=64)
def shannon_entropy_rate(model: NoiseModel) -> float:
    """Shannon entropy rate of the noise, base |A|: -L'(1)."""
    return -_renyi_log_sum(model, 1.0)[1]


@lru_cache(maxsize=64)
def renyi_entropy_rate(model: NoiseModel, alpha: float) -> float:
    """Renyi entropy rate at a finite parameter ``alpha`` > 0, alpha != 1 (the alpha -> inf
    limit is ``min_entropy_rate``), base |A|: L(alpha) / (1 - alpha), clamped at 0, where
    rounding can take it below."""
    if _finite("alpha", alpha, positive=True) == 1.0:
        raise ValueError("alpha = 1 is the Shannon rate; use shannon_entropy_rate")
    return max(_renyi_log_sum(model, alpha)[0] / (1.0 - alpha), 0.0)


def min_entropy_rate(model: NoiseModel) -> float:
    """Min-entropy rate, base |A|: minus the largest log, the rho -> inf limit
    of -L'(rho). For the Markov chain that log is the best per-step growth,
    of staying in a state or of alternating between the two."""
    _, top, _, log_a = model._log_terms
    return -top / log_a


def model_error_probability(model: NoiseModel) -> float:
    """Per-symbol probability that the noise is non-zero."""
    if isinstance(model, IIDNoise):
        return 1.0 - model.pmf[0]
    return model.stationary_flip_probability


def _positive_int(name: str, value, least: int = 1) -> int:
    """``value`` as an int; ValueError, naming ``name``, ``least`` and ``value``, unless it
    is an integer >= ``least``, by default 1 (numpy's count, bools not). The one integer check."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):  # int's protocol
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _alphabet_size(value) -> int:
    return _positive_int("alphabet_size", value, least=2)


def _seed(value) -> int:
    """``value`` as an int; ValueError unless it is an integer in [0, 2^64), as files store."""
    if (value := _positive_int("seed", value, least=0)) >= 2**64:
        raise ValueError(f"seed must be < 2**64, got {value}")
    return value


# The rules for real parameters; each returns ``value`` and is written so that NaN fails it.


def _unit(name: str, value: float) -> float:
    """``value``; ValueError unless it lies in the open interval (0, 1)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1)")
    return value


def _finite(name: str, value: float, positive: bool = False) -> float:
    """``value``; ValueError unless it is finite and non-negative (positive, if asked)."""
    if not (0.0 < value if positive else 0.0 <= value) or value == math.inf:
        raise ValueError(f"{name} must be {'positive' if positive else 'non-negative'} and finite")
    return value


def _number(name: str, value: float) -> float:
    """``value``; ValueError when it is NaN, which would compare false everywhere."""
    if math.isnan(value):
        raise ValueError(f"{name} must be a number, not NaN")
    return value


def _symbols(word) -> tuple[int, ...] | None:
    """``word`` as an int tuple, or None when a symbol is not an integer:
    0.7 is no symbol, where int() would truncate it to 0."""
    if isinstance(word, np.ndarray) and word.dtype.kind in "biu":
        return tuple(word.astype(int, copy=False).tolist())
    word = tuple(word)
    z = tuple(map(int, word))
    return z if z == word else None


_BYTES = bytes(range(256))  # byte i is symbol i


def _checked(word, alphabet_size: int, n: int | None = None) -> bytes | tuple[int, ...] | None:
    """``word``, of length ``n`` if given, as bytes (an int tuple past 256 symbols), or None
    when a symbol is no integer or lies outside the alphabet. A 1-D uint8 array gives its
    bytes, and ``bytes()`` reads a tuple or list in one pass, raising on a symbol that is no
    int in 0..255; other words go symbol by symbol (``_symbols``, which accepts 1.0 as 1)."""
    small = alphabet_size <= 256
    if small and isinstance(word, np.ndarray) and word.dtype == np.uint8 and word.ndim == 1:
        word = word.tobytes()
    elif small and isinstance(word, (tuple, list)):
        try:
            word = bytes(word)
        except (TypeError, ValueError):
            pass
    if not isinstance(word, (bytes, np.ndarray)):
        word = tuple(word)
    if n is not None and len(word) != n:
        raise ValueError("word length mismatch")
    if small and isinstance(word, bytes):  # deleting the alphabet's symbols leaves the others
        return None if word.translate(None, _BYTES[:alphabet_size]) else word
    word = _symbols(word) if getattr(word, "ndim", 1) == 1 else None
    if word is None or not 0 <= min(word, default=0) <= max(word, default=0) < alphabet_size:
        return None
    return bytes(word) if small else word


# Binary patterns pack into ints, symbol i of n in bit n - 1 - i, so the ints
# order as the sequences do.
_TO_DIGITS, _TO_SYMBOLS = bytes.maketrans(b"\0\1", b"01"), bytes.maketrans(b"01", b"\0\1")


def _pack(word) -> int:
    return int(bytes(word).translate(_TO_DIGITS), 2)


def _unpack(z: int, n: int) -> tuple[int, ...]:
    return tuple(format(z, f"0{n}b").encode().translate(_TO_SYMBOLS))


def sample_noise_with(model: NoiseModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a length-``n`` noise realization from the generator ``rng``.

    Each symbol takes one uniform of ``rng.random(n)``. IID noise looks it up in the
    cumulative pmf, as ``Generator.choice(p=pmf)`` does; the Markov chain starts in
    state 0 when the first is below ``initial_dist[0]``, and leaves a state when a
    later one is at least that state's stay probability. These are the draws, and the
    generator state after them, of the ``choice`` call and symbol loop the sampler
    first used, so reports made with those reproduce.
    """
    n = _positive_int("n", n)
    u = rng.random(n)
    if isinstance(model, IIDNoise):
        symbols = model._cdf.searchsorted(u, side="right")
        return symbols.astype(np.min_scalar_type(model.alphabet_size - 1))
    u, out, stay = u.tolist(), bytearray(n), (1.0 - model.a, 1.0 - model.b)
    state = out[0] = 0 if u[0] < model.initial_dist[0] else 1
    for i, x in enumerate(u[1:], 1):
        if x >= stay[state]:
            state ^= 1
        out[i] = state
    return np.frombuffer(out, np.uint8)
