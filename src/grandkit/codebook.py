"""Codebooks and the statistics of accidental codeword hits.

Three representations are provided: explicit uniform-random word sets (one
symbol array, indexed by sorted keys), binary linear codes with syndrome
membership, and ``UHitModel`` — the law of the number of guesses until the
first non-transmitted codeword is encountered, which for a uniformly drawn
codebook is the minimum of M_n independent uniforms on {1, ..., |A|^n}.

Membership is one method, ``bind(y)``: a test of noise patterns z (packed ints when
binary) against the received word y, giving the codeword y (-) z or None; ``contains``
looks the word up as y with z = 0. A linear code reads y once, packed and with H y
(``_read``), for the decoder's syndrome table, and gives H z (``_syndrome``) for its build.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import compress
from typing import ClassVar

import mpmath
import numpy as np

from .noise_models import (
    _alphabet_size, _checked, _finite, _pack, _positive_int, _seed, _unit, _unpack,
)

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
    "sample_u_exact",
    "save_codebook",
    "load_codebook",
]

# Explicit storage cap, which bounds a build's peak. Besides its symbol-array row, a stored
# word keeps 8 bytes of sorted key, 8 of info index and at most 16 of prefilter; a key past
# int64 is also an int object of at most 48 + bits / 4 bytes, and marking it in the prefilter
# takes 40 bytes more (an int object and two 8-byte slots, before the info index exists).
# The 2^16-symbol draw and key buffers take at most 48 bytes a symbol: an 8-byte slot, and
# for object keys an int object of up to 64 bits. Object and array headers: < 4 KB.
_MEMORY_LIMIT_BYTES = 2**30

_MAGIC_EXPLICIT = b"GKCBE1\n"
_MAGIC_LINEAR = b"GKCBL1\n"
# a codebook file's header after its magic: the struct format, and the attributes it holds
_HEADERS = {
    _MAGIC_EXPLICIT: ("<IQQdH", ("n", "size", "seed", "rate", "alphabet_size")),
    _MAGIC_LINEAR: ("<IIQ", ("n", "k", "seed")),
}


class ExplicitModeTooLargeError(RuntimeError):
    """Explicit codebook would not fit in memory; use linear or race mode."""


class NotACodewordError(ValueError):
    """Word presented for information decoding is not in the codebook."""


def codebook_size(alphabet_size: int, n: int, rate: float) -> int:
    """M_n = floor(|A|^(n R)), exact for any block length."""
    alphabet_size, n = _alphabet_size(alphabet_size), _positive_int("n", n)
    _finite("rate", rate)
    with mpmath.workdps(max(30, int(n * rate * math.log10(alphabet_size)) + 30)):
        return int(mpmath.floor(mpmath.mpf(alphabet_size) ** (mpmath.mpf(n) * mpmath.mpf(rate))))


class _Membership:
    """``bind`` and ``contains`` for both codebooks: ``_read`` checks the word once, ``_bind``
    tests patterns against what it read. A word with a symbol outside the alphabet is no member."""

    def bind(self, y):
        """Membership of y (-) z for the received word ``y``: a function of the noise
        pattern z (a packed int when binary, else an int tuple) giving that codeword, or None."""
        return self._bind(self._read(y))

    def _read(self, y):
        """``y`` as ``_checked`` gives it; ValueError when a symbol lies outside the alphabet."""
        if (checked := _checked(y, self.alphabet_size, self.n)) is None:
            raise ValueError(f"received word has a symbol outside 0..{self.alphabet_size - 1}")
        return checked

    def contains(self, word) -> bool:
        zero = 0 if self.alphabet_size == 2 else (0,) * self.n
        word = _checked(word, self.alphabet_size, self.n)
        return word is not None and self.bind(word)(zero) is not None


@dataclass(eq=False)
class _Words(Sequence):
    """The stored words, an (m, n) symbol array, read as int tuples."""

    array: np.ndarray

    def __len__(self):
        return len(self.array)

    def __getitem__(self, i):
        rows = self.array[i].tolist()
        return tuple(map(tuple, rows)) if isinstance(i, slice) else tuple(rows)

    def __eq__(self, other):
        if isinstance(other, _Words):
            return np.array_equal(self.array, other.array)
        return isinstance(other, Sequence) and list(self) == list(other)


@dataclass(frozen=True)
class ExplicitCodebook(_Membership):
    """Uniform-with-replacement codebook stored as an explicit word list.

    ``words[i]`` is the codeword of info index ``i``; duplicates are allowed
    and membership deduplicates, resolving collisions to the lowest index.
    ``words`` may be given as int tuples or as an (m, n) integer array.
    The index: the words' base-|A| keys, sorted; their order, info indices with equal
    keys ascending (one in-place sort of key << b | index when that fits in int64, else
    a stable argsort), so a run's first slot holds its lowest; a byte prefilter of 8-16
    slots per word over the keys' low bits, which shared low-order symbols only slow.
    """

    n: int
    rate: float
    seed: int
    alphabet_size: int
    words: Sequence[tuple[int, ...]] = field(hash=False)
    _index: tuple = field(repr=False, hash=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "n", _positive_int("n", self.n))
        object.__setattr__(self, "seed", _seed(self.seed))
        object.__setattr__(self, "alphabet_size", _alphabet_size(self.alphabet_size))
        _finite("rate", self.rate)
        a, words = self.alphabet_size, np.asarray(self.words)
        if words.size and words.shape[1:] != (self.n,):
            raise ValueError("codeword length mismatch")
        array = words.astype(np.min_scalar_type(a - 1), copy=False).reshape(-1, self.n)
        lossless = array.dtype == words.dtype or np.array_equal(array, words)
        if words.size and (not lossless or array.max() >= a):
            raise ValueError(f"need int symbols in 0..{a - 1}, the alphabet")
        key_type = np.int64 if a**self.n < 2**63 else object
        dot_type = np.float64 if a**self.n <= 2**53 else key_type  # BLAS, exact below 2^53
        wide = key_type is object  # summed as _key does: n powers would take n^2 log2|A| / 16 bytes
        powers = None if wide else np.array([a**i for i in range(self.n - 1, -1, -1)], dot_type)
        keys, rows = np.empty(len(array), key_type), max(1, 2**16 // self.n)
        for i in range(0, len(array), rows):  # the _key of every row
            chunk = array[i : i + rows].astype(dot_type)
            keys[i : i + rows] = _key(chunk.T, a) if wide else chunk @ powers
        mask = (1 << (8 * len(keys) - 1).bit_length()) - 1
        seen = bytearray(mask + 1)
        np.frombuffer(seen, np.uint8)[(keys & mask).astype(np.intp, copy=False)] = 1
        bits = (len(keys) - 1).bit_length()  # of an info index
        if a**self.n << bits < 2**63:  # one in-place sort of key << bits | info index
            keys <<= bits
            keys |= np.arange(len(keys))
            keys.sort()
            order = keys & ((1 << bits) - 1)
            keys >>= bits
        else:
            order = np.argsort(keys, kind="stable")
            keys.sort()  # in place, where keys[order] would copy them
        object.__setattr__(self, "words", _Words(array))
        object.__setattr__(self, "_index", (keys, order, seen, mask))

    @property
    def size(self) -> int:
        return len(self.words)

    def _bind(self, y):
        """``bind`` for the checked word ``y``."""
        a, words, info_index = self.alphabet_size, self.words, self._info_index
        _, _, seen, mask = self._index
        key = _pack(y).__xor__ if a == 2 else (
            lambda z: _key(((s - t) % a for s, t in zip(y, z)), a))

        def hit(z):
            if seen[(k := key(z)) & mask] and (i := info_index(k)) is not None:
                return words[i]
            return None

        return hit

    def _info_index(self, key) -> int | None:
        """The lowest info index of a stored word with this key, or None."""
        keys, order, _, _ = self._index
        i = keys.searchsorted(key)
        return order[i] if i < len(keys) and keys[i] == key else None

    def encode(self, info_index: int) -> tuple[int, ...]:
        if not 0 <= info_index < len(self.words):
            raise ValueError("info index out of range")
        return self.words[info_index]

    def decode_to_info(self, word) -> int:
        word = _checked(word, self.alphabet_size, self.n)
        if word is None or (i := self._info_index(_key(word, self.alphabet_size))) is None:
            raise NotACodewordError("word is not in the codebook")
        return int(i)


@dataclass(frozen=True)
class LinearCodebook(_Membership):
    """Binary linear code in systematic form: G = [I | P], H = [P^T | I].

    The code is kept as G's rows, packed as ints in ``_pack``'s order: ``encode`` XORs
    them, and H's columns, int bitmasks, are their parity bits beside the identity. A byte
    table per 8 columns gives H y (``_read``) for membership, ``_syndrome`` gives H z for
    the decoder's syndrome table, and the info word of a codeword is its first ``k`` bits.
    """

    generator: tuple[tuple[int, ...], ...]
    seed: int = 0
    n: int = field(init=False, repr=False, compare=False)
    k: int = field(init=False, repr=False, compare=False)
    alphabet_size: ClassVar[int] = 2

    def __post_init__(self):
        g = np.asarray(self.generator)
        if g.ndim != 2 or g.shape[0] > g.shape[1]:
            raise ValueError("generator must be k x n with k <= n")
        if not ((g == 0) | (g == 1)).all():  # before the cast, which would wrap or truncate
            raise ValueError("generator entries must be 0 or 1")
        k, n = g.shape
        rows = [_pack(row) for row in g.astype(np.uint8)]
        if any(row >> (n - k) != 1 << (k - 1 - i) for i, row in enumerate(rows)):
            raise ValueError("generator must be systematic: G = [I | P]")
        # _columns[b]: the column of H, as an int, of symbol n - 1 - b (bit b)
        columns = [1 << b if b < n - k else rows[n - 1 - b] & ((1 << (n - k)) - 1)
                   for b in range(n)]
        tables = [[0] for _ in range(0, n, 8)]  # tables[j][v] = H (v << 8 j), as an int
        for b, column in enumerate(columns):
            tables[b // 8] += [s ^ column for s in tables[b // 8]]
        state = dict(n=n, k=k, seed=_seed(self.seed), _rows=rows, _columns=columns, _tables=tables,
                     _leader_tables={})  # _leader_tables: model -> the decoder's syndrome table
        for name, value in state.items():
            object.__setattr__(self, name, value)

    @property
    def rate(self) -> float:
        return self.k / self.n

    @cached_property
    def size(self) -> int:
        return 2**self.k

    def _syndrome(self, z: int) -> int:
        """H z for the packed pattern ``z``, H's columns at its set bits XORed."""
        return _xor_columns(self._columns, z)

    def _read(self, y) -> tuple[int, int]:
        """The received word ``y``, checked, packed, and H y from the byte tables."""
        y, s = _pack(_Membership._read(self, y)), 0
        for table, byte in zip(self._tables, y.to_bytes(len(self._tables), "little")):
            s ^= table[byte]
        return y, s

    def _bind(self, read):
        """``bind`` for ``_read``'s (y, s = H y): y XOR z is a codeword when H z = s."""
        (y, s), n, columns = read, self.n, self._columns
        return lambda z: None if _xor_columns(columns, z, s) else _unpack(y ^ z, n)

    def encode(self, info_word) -> tuple[int, ...]:
        if (u := _checked(info_word, 2, self.k)) is None:
            raise ValueError("info word must be binary")
        return _unpack(reduce(int.__xor__, compress(self._rows, u), 0), self.n)

    def decode_to_info(self, word) -> tuple[int, ...]:
        if (word := _checked(word, 2, self.n)) is None:
            raise NotACodewordError("word is not binary")
        if self._read(word)[1]:  # a codeword has H y = 0
            raise NotACodewordError("word is not in the codebook")
        return tuple(word[: self.k])


Codebook = ExplicitCodebook | LinearCodebook


def _xor_columns(columns: list[int], z: int, s: int = 0) -> int:
    """``s`` XOR the columns of H at the set bits of the packed pattern ``z``."""
    while z:
        low = z & -z
        s ^= columns[low.bit_length() - 1]
        z ^= low
    return s


def _key(word, a: int):
    """Index key of a word: its symbols read as a base-``a`` number, first
    symbol most significant (``_pack`` when binary)."""
    return reduce(lambda key, s: key * a + s, word, 0)


def build_uniform_codebook(
    n: int, rate: float, seed: int, alphabet_size: int = 2
) -> ExplicitCodebook:
    """Draw M_n = floor(|A|^(n R)) words uniformly with replacement.

    The words are those of ``default_rng(seed).integers(0, |A|, (M_n, n))``, read from
    the generator's raw 32-bit outputs when |A| is a power of two up to 2^32.

    Raises ExplicitModeTooLargeError, before drawing, when the build would peak
    above 1 GiB: the stored words, their index and its working buffers.
    """
    n, seed, alphabet_size = _positive_int("n", n), _seed(seed), _alphabet_size(alphabet_size)
    m = codebook_size(alphabet_size, n, rate)
    dtype = np.min_scalar_type(alphabet_size - 1)
    index = 32 + (88 + n * math.log2(alphabet_size) / 4 if alphabet_size**n >= 2**63 else 0)
    if m * (n * dtype.itemsize + index) + 2**16 * 48 + 4096 > _MEMORY_LIMIT_BYTES:
        raise ExplicitModeTooLargeError(
            f"explicit codebook needs {m} words of length {n}; "
            "use a linear codebook or race-mode simulation"
        )
    words, rng = np.empty((m, n), dtype), np.random.default_rng(seed)
    flat, shift = words.reshape(-1), 33 - alphabet_size.bit_length()
    for i in range(0, flat.size, 2**16):  # symbols drawn at once
        count = min(2**16, flat.size - i)
        if alphabet_size & (alphabet_size - 1) or shift < 0:
            flat[i : i + count] = rng.integers(0, alphabet_size, count, np.int64)
        else:  # integers(0, 2^k) is the top k bits of each 32-bit draw: low half, then high
            raw = rng.bit_generator.random_raw((count + 1) // 2).astype("<u8", copy=False)
            flat[i : i + count] = raw.view("<u4")[:count] >> shift
    return ExplicitCodebook(
        n=n, rate=rate, seed=seed, alphabet_size=alphabet_size, words=words
    )


def build_linear_codebook(n: int, k: int, seed: int) -> LinearCodebook:
    """Uniformly random systematic binary code: G = [I | P] with P uniform.

    Systematic form makes G full rank by construction.
    """
    n, k, seed = _positive_int("n", n), _positive_int("k", k), _seed(seed)
    if k > n:
        raise ValueError("need 1 <= k <= n")
    rng = np.random.default_rng(seed)
    p = rng.integers(0, 2, size=(k, n - k), dtype=np.uint8)
    g = np.concatenate([np.eye(k, dtype=np.uint8), p], axis=1)
    return LinearCodebook(tuple(map(tuple, g.tolist())), seed=seed)


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

    def __post_init__(self):
        object.__setattr__(self, "n", _positive_int("n", self.n))
        object.__setattr__(self, "alphabet_size", _alphabet_size(self.alphabet_size))
        _finite("rate", self.rate)

    @cached_property
    def M_n(self) -> int:
        return codebook_size(self.alphabet_size, self.n, self.rate)


def sample_u_exact(m: UHitModel, v: float) -> int:
    """Inverse-transform sample of U from the exact min-of-uniforms law.

    ``v`` is a uniform variate in (0, 1); the returned integer lies in
    {1, ..., |A|^n}. Uses the identity U = ceil(T (1 - v^(1/M))) with v read
    as the survival level, exact to the working precision: 40 decimal digits
    beyond those of T = |A|^n.
    """
    _unit("v", v)
    with mpmath.workdps(math.ceil(m.n * math.log10(m.alphabet_size)) + 40):
        total = mpmath.mpf(m.alphabet_size) ** m.n
        frac = -mpmath.expm1(mpmath.log(mpmath.mpf(v)) / m.M_n)
        u = int(mpmath.ceil(total * frac))
    return min(max(u, 1), m.alphabet_size**m.n)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def save_codebook(cb: Codebook, path: str) -> None:
    """Write ``cb`` to ``path``: its magic, the header ``_HEADERS`` lays out, its words."""
    if cb.alphabet_size > 256:
        raise ValueError("serialization supports alphabets up to 256 symbols")
    linear = isinstance(cb, LinearCodebook)
    magic = _MAGIC_LINEAR if linear else _MAGIC_EXPLICIT
    fmt, names = _HEADERS[magic]
    words = np.asarray(cb.generator if linear else cb.words.array, dtype=np.uint8)
    body = np.packbits(words) if cb.alphabet_size == 2 else words  # binary words as bits
    header = struct.pack(fmt, *(getattr(cb, name) for name in names))
    with open(path, "wb") as f:
        f.write(magic + header + body.tobytes())


def load_codebook(path: str) -> Codebook:
    """Read a codebook written by :func:`save_codebook`.

    Raises ValueError unless the file is one complete codebook: a known magic,
    a whole header (n >= 1, a finite rate >= 0, at most 256 symbols), exactly
    the body length it implies, and no symbol outside the alphabet.
    """
    with open(path, "rb") as f:
        data = f.read()
    magic = data[: len(_MAGIC_EXPLICIT)]
    if magic not in _HEADERS:
        raise ValueError(f"{path} is not a recognized codebook file")
    fmt, names = _HEADERS[magic]
    start = len(magic) + struct.calcsize(fmt)
    if len(data) < start:
        raise ValueError(f"{path}: truncated codebook header")
    header = dict(zip(names, struct.unpack_from(fmt, data, len(magic))))
    rows = header.pop("size" if magic == _MAGIC_EXPLICIT else "k")  # words stored
    n, a = header["n"], header.get("alphabet_size", 2)
    expected = (rows * n + 7) // 8 if a == 2 else rows * n
    body = np.frombuffer(data, dtype=np.uint8, offset=start)
    if len(body) != expected:
        raise ValueError(
            f"{path}: codebook body has {len(body)} bytes, header implies {expected}"
        )
    if a > 256:
        raise ValueError("serialization supports alphabets up to 256 symbols")
    words = (np.unpackbits(body, count=rows * n) if a == 2 else body).reshape(rows, n)
    if magic == _MAGIC_EXPLICIT:
        return ExplicitCodebook(**header, words=words)
    return LinearCodebook(tuple(map(tuple, words.tolist())), seed=header["seed"])
