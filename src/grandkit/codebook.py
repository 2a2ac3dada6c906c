"""Codebooks and the statistics of accidental codeword hits.

Three representations are provided: explicit uniform-random word sets, binary
linear codes with syndrome membership, and ``UHitModel`` — the law of the
number of guesses until the first non-transmitted codeword is encountered,
which for a uniformly drawn codebook is the minimum of M_n independent
uniforms on {1, ..., |A|^n}.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import mpmath
import numpy as np

__all__ = [
    "ExplicitCodebook",
    "LinearCodebook",
    "Codebook",
    "UHitModel",
    "ExplicitModeTooLargeError",
    "NotACodewordError",
    "codebook_size",
    "build_uniform_codebook",
    "build_linear_codebook",
    "u_survival_exact",
    "u_survival_approx",
    "sample_u_exact",
    "save_codebook",
    "load_codebook",
]

# Default guard: explicit storage capped at 1 GiB of packed word bits.
_DEFAULT_MEMORY_LIMIT_BITS = 8 * 2**30

_MAGIC_EXPLICIT = b"GKCBE1\n"
_MAGIC_LINEAR = b"GKCBL1\n"


class ExplicitModeTooLargeError(RuntimeError):
    """Explicit codebook would not fit in memory; use linear or race mode."""


class NotACodewordError(ValueError):
    """Word presented for information decoding is not in the codebook."""


def codebook_size(alphabet_size: int, n: int, rate: float) -> int:
    """M_n = floor(|A|^(n R)), exact for any block length."""
    if rate < 0.0:
        raise ValueError("rate must be non-negative")
    with mpmath.workdps(max(30, int(n * rate * math.log10(alphabet_size)) + 30)):
        return int(mpmath.floor(mpmath.mpf(alphabet_size) ** (mpmath.mpf(n) * mpmath.mpf(rate))))


@dataclass(frozen=True)
class ExplicitCodebook:
    """Uniform-with-replacement codebook stored as an explicit word list.

    ``words[i]`` is the codeword of info index ``i``; duplicates are allowed
    and membership deduplicates, resolving collisions to the lowest index.
    """

    n: int
    rate: float
    seed: int
    alphabet_size: int
    words: tuple[tuple[int, ...], ...]
    _index: dict = field(repr=False, hash=False, compare=False, default=None)

    def __post_init__(self):
        index = {}
        for i, w in enumerate(self.words):
            if len(w) != self.n:
                raise ValueError("codeword length mismatch")
            index.setdefault(w, i)
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.words)

    def contains(self, word) -> bool:
        word = tuple(int(s) for s in word)
        if len(word) != self.n:
            raise ValueError("word length mismatch")
        return word in self._index

    def encode(self, info_index: int) -> tuple[int, ...]:
        if not 0 <= info_index < len(self.words):
            raise ValueError("info index out of range")
        return self.words[info_index]

    def decode_to_info(self, word) -> int:
        word = tuple(int(s) for s in word)
        idx = self._index.get(word)
        if idx is None:
            raise NotACodewordError("word is not in the codebook")
        return idx


@dataclass(frozen=True)
class LinearCodebook:
    """Binary linear code in systematic form: G = [I | P], H = [P^T | I].

    Membership is a syndrome check; the info word of a codeword is its first
    ``k`` bits.
    """

    generator: tuple[tuple[int, ...], ...]
    seed: int = 0

    def __post_init__(self):
        g = np.array(self.generator, dtype=np.uint8)
        if g.ndim != 2 or g.shape[0] > g.shape[1]:
            raise ValueError("generator must be k x n with k <= n")
        k, n = g.shape
        if not np.array_equal(g[:, :k], np.eye(k, dtype=np.uint8)):
            raise ValueError("generator must be systematic: G = [I | P]")
        object.__setattr__(self, "_g", g)
        p = g[:, k:]
        h = np.concatenate([p.T, np.eye(n - k, dtype=np.uint8)], axis=1)
        object.__setattr__(self, "_h", h)

    @property
    def n(self) -> int:
        return self._g.shape[1]

    @property
    def k(self) -> int:
        return self._g.shape[0]

    @property
    def rate(self) -> float:
        return self.k / self.n

    @property
    def alphabet_size(self) -> int:
        return 2

    @property
    def size(self) -> int:
        return 2**self.k

    @property
    def parity_check(self) -> np.ndarray:
        return self._h.copy()

    def contains(self, word) -> bool:
        w = np.asarray(word, dtype=np.uint8)
        if w.shape != (self.n,):
            raise ValueError("word length mismatch")
        if self.k == self.n:
            return True
        return not np.any((self._h @ w) % 2)

    def encode(self, info_word) -> tuple[int, ...]:
        u = np.asarray(info_word, dtype=np.uint8)
        if u.shape != (self.k,):
            raise ValueError("info word length mismatch")
        return tuple(int(b) for b in (u @ self._g) % 2)

    def decode_to_info(self, word) -> tuple[int, ...]:
        word = tuple(int(s) for s in word)
        if not self.contains(word):
            raise NotACodewordError("word is not in the codebook")
        return word[: self.k]


Codebook = ExplicitCodebook | LinearCodebook


def build_uniform_codebook(
    n: int,
    rate: float,
    seed: int,
    alphabet_size: int = 2,
    memory_limit_bits: int = _DEFAULT_MEMORY_LIMIT_BITS,
) -> ExplicitCodebook:
    """Draw M_n = floor(|A|^(n R)) words uniformly with replacement."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = codebook_size(alphabet_size, n, rate)
    bits_per_symbol = max(1.0, math.log2(alphabet_size))
    if m * n * bits_per_symbol > memory_limit_bits:
        raise ExplicitModeTooLargeError(
            f"explicit codebook needs {m} words of length {n}; "
            "use a linear codebook or race-mode simulation"
        )
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, alphabet_size, size=(m, n), dtype=np.int64)
    words = tuple(tuple(int(s) for s in row) for row in draws)
    return ExplicitCodebook(
        n=n, rate=rate, seed=seed, alphabet_size=alphabet_size, words=words
    )


def build_linear_codebook(n: int, k: int, seed: int) -> LinearCodebook:
    """Uniformly random systematic binary code: G = [I | P] with P uniform.

    Systematic form makes G full rank by construction.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    rng = np.random.default_rng(seed)
    p = rng.integers(0, 2, size=(k, n - k), dtype=np.uint8)
    g = np.concatenate([np.eye(k, dtype=np.uint8), p], axis=1)
    return LinearCodebook(tuple(tuple(int(b) for b in row) for row in g), seed=seed)


# ---------------------------------------------------------------------------
# Statistics of the first accidental codeword hit.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UHitModel:
    """Law of the guess count until a non-transmitted codeword is hit.

    For a uniform codebook this is the minimum of ``M_n`` independent uniforms
    on {1, ..., |A|^n}.
    """

    n: int
    rate: float
    alphabet_size: int = 2

    @property
    def M_n(self) -> int:
        return codebook_size(self.alphabet_size, self.n, self.rate)


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


def sample_u_exact(m: UHitModel, v: float) -> int:
    """Inverse-transform sample of U from the exact min-of-uniforms law.

    ``v`` is a uniform variate in (0, 1); the returned integer lies in
    {1, ..., |A|^n}. Uses the identity U = ceil(T (1 - v^(1/M))) with v read
    as the survival level, exact to the working precision.
    """
    if not 0.0 < v < 1.0:
        raise ValueError("v must lie strictly in (0, 1)")
    with mpmath.workdps(m.n + 40):
        total = mpmath.mpf(m.alphabet_size) ** m.n
        frac = -mpmath.expm1(mpmath.log(mpmath.mpf(v)) / m.M_n)
        u = int(mpmath.ceil(total * frac))
    return min(max(u, 1), m.alphabet_size**m.n)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def _pack_words(words, n: int, alphabet_size: int) -> bytes:
    if alphabet_size == 2:
        flat = np.array([s for w in words for s in w], dtype=np.uint8)
        return np.packbits(flat).tobytes()
    if alphabet_size > 256:
        raise ValueError("serialization supports alphabets up to 256 symbols")
    return bytes(s for w in words for s in w)


def _unpack_words(body: bytes, count: int, n: int, alphabet_size: int):
    if alphabet_size == 2:
        flat = np.unpackbits(np.frombuffer(body, dtype=np.uint8), count=count * n)
        return tuple(
            tuple(int(b) for b in flat[i * n : (i + 1) * n]) for i in range(count)
        )
    return tuple(
        tuple(body[i * n + j] for j in range(n)) for i in range(count)
    )


def save_codebook(cb: Codebook, path: str) -> None:
    """Write a codebook to ``path`` in the library's binary format."""
    with open(path, "wb") as f:
        if isinstance(cb, ExplicitCodebook):
            f.write(_MAGIC_EXPLICIT)
            f.write(
                struct.pack(
                    "<IQQdH", cb.n, cb.size, cb.seed, cb.rate, cb.alphabet_size
                )
            )
            f.write(_pack_words(cb.words, cb.n, cb.alphabet_size))
        else:
            f.write(_MAGIC_LINEAR)
            f.write(struct.pack("<IIQ", cb.n, cb.k, cb.seed))
            f.write(_pack_words(cb.generator, cb.n, 2))


def load_codebook(path: str) -> Codebook:
    """Read a codebook written by :func:`save_codebook`.

    Raises ValueError unless the file is one complete codebook: a known magic,
    a whole header, exactly the body length the header implies, and (for
    alphabets other than binary) no symbol outside the alphabet.
    """
    with open(path, "rb") as f:
        data = f.read()
    magic = data[: len(_MAGIC_EXPLICIT)]
    if magic not in (_MAGIC_EXPLICIT, _MAGIC_LINEAR):
        raise ValueError(f"{path} is not a recognized codebook file")
    fmt = "<IQQdH" if magic == _MAGIC_EXPLICIT else "<IIQ"
    start = len(magic) + struct.calcsize(fmt)
    if len(data) < start:
        raise ValueError(f"{path}: truncated codebook header")
    fields = struct.unpack_from(fmt, data, len(magic))
    if magic == _MAGIC_EXPLICIT:
        n, count, seed, rate, a = fields
    else:
        n, count, seed = fields
        a = 2
    bits = count * n
    expected = (bits + 7) // 8 if a == 2 else bits
    body = data[start:]
    if len(body) != expected:
        raise ValueError(
            f"{path}: codebook body has {len(body)} bytes, header implies {expected}"
        )
    if a != 2 and body and max(body) >= a:
        raise ValueError(f"{path}: codeword symbol outside the alphabet of size {a}")
    words = _unpack_words(body, count, n, a)
    if magic == _MAGIC_EXPLICIT:
        return ExplicitCodebook(n=n, rate=rate, seed=seed, alphabet_size=a, words=words)
    return LinearCodebook(words, seed=seed)
