import hashlib
import itertools
import math
import pickle
import random
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grandkit import codebook
from grandkit.cli import main
from grandkit.codebook import (
    ExplicitCodebook,
    ExplicitModeTooLargeError,
    LinearCodebook,
    NotACodewordError,
    UHitModel,
    build_linear_codebook,
    build_uniform_codebook,
    codebook_size,
    load_codebook,
    sample_u_exact,
    save_codebook,
)
from grandkit.decoder import grand_decode
from grandkit.guesswork import guess_rank
from grandkit.noise_models import IIDNoise, _pack, _unpack, bsc

from .oracles import TupleIndexCodebook, sample_u_wide, u_survival_approx, u_survival_exact

# Systematic generator of the distance-3 single-error-correcting (7,4) code.
HAMMING_G = (
    (1, 0, 0, 0, 1, 1, 0),
    (0, 1, 0, 0, 1, 0, 1),
    (0, 0, 1, 0, 0, 1, 1),
    (0, 0, 0, 1, 1, 1, 1),
)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "3", np.float64(2.0)])
def test_a_seed_is_an_int_a_codebook_file_holds(seed):
    makers = (
        lambda: LinearCodebook(HAMMING_G, seed=seed),
        lambda: ExplicitCodebook(n=2, rate=0.5, seed=seed, alphabet_size=2, words=[(0, 1)]),
        lambda: build_uniform_codebook(4, 0.5, seed),
        lambda: build_linear_codebook(7, 4, seed),
    )
    for make in makers:
        with pytest.raises(ValueError, match="^seed must"):
            make()


@pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
def test_edge_seeds_save_and_load(tmp_path, seed):
    for cb in (build_linear_codebook(7, 4, seed), build_uniform_codebook(4, 0.5, seed)):
        assert type(cb.seed) is int and cb.seed == seed
        save_codebook(cb, str(tmp_path / "cb"))
        assert load_codebook(str(tmp_path / "cb")) == cb


def test_size_formula():
    assert codebook_size(2, 4, 0.0) == 1
    assert codebook_size(2, 16, 0.8) == 7131  # floor(2^12.8)
    assert codebook_size(2, 10, 1.0) == 1024


def test_uniform_codebook_size_and_determinism():
    cb1 = build_uniform_codebook(16, 0.8, seed=5)
    cb2 = build_uniform_codebook(16, 0.8, seed=5)
    assert cb1.size == 7131
    assert cb1.words == cb2.words
    assert build_uniform_codebook(16, 0.8, seed=6).words != cb1.words


def test_rate_zero_single_word():
    cb = build_uniform_codebook(4, 0.0, seed=1)
    assert cb.size == 1


def test_memory_guard():
    with pytest.raises(ExplicitModeTooLargeError):
        build_uniform_codebook(100, 0.9, seed=0)


def test_memory_guard_counts_stored_words(monkeypatch):
    # 2^25 words of 26 bits pack into 109 MB but take ~1.9 GB as a symbol
    # array and its index; the guard must refuse before any word is drawn
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ExplicitModeTooLargeError):
        build_uniform_codebook(26, 25 / 26, seed=0)


def _guard_estimate(n: int, m: int, a: int) -> float:
    """The guard's estimate of a build's peak: per word, the symbol row, 8 bytes of
    sorted key, 8 of info index and at most 16 of prefilter, plus for keys past int64
    an int object of at most 48 + bits / 4 bytes and 40 bytes of prefilter temporaries;
    48 bytes for each of the 2^16 symbols of the working buffers; 4 KB of headers."""
    key = 32 + (88 + n * math.log2(a) / 4 if a**n >= 2**63 else 0)
    return m * (n * np.min_scalar_type(a - 1).itemsize + key) + 2**16 * 48 + 4096


def _rate_for(m: int, n: int, a: int) -> float:
    """A rate R with floor(a^(n R)) = m."""
    rate = math.log2(m + 0.5) / (n * math.log2(a))
    assert codebook_size(a, n, rate) == m
    return rate


@pytest.mark.parametrize(
    # m = 2^16 + 1 gives the prefilter its most bytes per word; 2^18 words of
    # 24 bits is the benchmark's codebook; n = 80 binary keys are Python ints
    "n, m, a",
    [(24, 2**16 + 1, 2), (24, 2**18, 2), (11, 24576, 3), (80, 5000, 2), (3, 4000, 300)],
)
def test_memory_guard_bounds_what_a_build_keeps(monkeypatch, n, m, a):
    # a cap at the guard's estimate lets the build through, and what it keeps,
    # traced, fits under that cap
    rate = _rate_for(m, n, a)
    estimate = _guard_estimate(n, m, a)
    monkeypatch.setattr(codebook, "_MEMORY_LIMIT_BYTES", math.ceil(estimate))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cb = build_uniform_codebook(n, rate, seed=1, alphabet_size=a)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cb.size == m and kept <= estimate
    monkeypatch.setattr(codebook, "_MEMORY_LIMIT_BYTES", math.ceil(estimate) - 1)
    with pytest.raises(ExplicitModeTooLargeError):
        build_uniform_codebook(n, rate, seed=1, alphabet_size=a)


@pytest.mark.parametrize(
    # power-of-two alphabets read raw 32-bit draws; an odd m n splits the last
    # 64-bit output; 4, 256 and 2^32 span several chunks
    "a, m, n",
    [(2, 26616, 21), (3, 40000, 11), (300, 20000, 3), (4, 30001, 7), (16, 9999, 5),
     (256, 50001, 3), (2**32, 30001, 3)],
)
def test_build_draws_the_words_of_one_unchunked_draw(a, m, n):
    # the build draws 2^16 symbols at a time; none of these m n is a multiple
    assert m * n % 2**16
    cb = build_uniform_codebook(n, _rate_for(m, n, a), seed=11, alphabet_size=a)
    draw = np.random.default_rng(11).integers(0, a, size=(m, n), dtype=np.int64)
    assert np.array_equal(cb.words.array, draw)
    assert cb.words == tuple(tuple(row) for row in draw.tolist())


@pytest.mark.parametrize(
    # the benchmark's codebook; at n = 54 keys too wide to pack with an info index;
    # small builds, where the 2^16-symbol buffers and object keys dominate; one word of
    # 10 000 bits, whose key no table of n powers may go into
    "n, m, a",
    [pytest.param(24, 2**18, 2, id="24"), pytest.param(54, 2**18, 2, id="54"),
     (80, 5000, 2), (3, 4000, 300), (10000, 1, 2)],
)
def test_build_peaks_within_the_guard_estimate(n, m, a):
    # the guard's estimate bounds what a build holds at its peak, so a build the
    # guard lets through fits
    estimate = _guard_estimate(n, m, a)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build_uniform_codebook(n, _rate_for(m, n, a), seed=5, alphabet_size=a)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= estimate


def test_benchmark_codebook_is_one_unchunked_draw():
    # the benchmark's 2^18-word codebook: its words, and so every decode on
    # it, stay those of one draw
    cb = build_uniform_codebook(24, 0.75, seed=5)
    draw = np.random.default_rng(5).integers(0, 2, (2**18, 24))
    assert np.array_equal(cb.words.array, draw)


@pytest.mark.parametrize("n, a", [(24, 2), (70, 2), (5, 3)])
def test_empty_explicit_codebook_holds_no_word(tmp_path, n, a):
    # n = 70 gives keys past int64
    cb = ExplicitCodebook(n=n, rate=0.0, seed=0, alphabet_size=a, words=np.empty((0, n), int))
    assert cb.size == 0 and not cb.contains((0,) * n)
    assert cb.bind((1,) * n)(0 if a == 2 else (0,) * n) is None
    with pytest.raises(NotACodewordError):
        cb.decode_to_info((0,) * n)
    with pytest.raises(ValueError, match="codebook is empty"):
        grand_decode(cb, (0,) * n, IIDNoise((0.9, 0.1)) if a == 2 else IIDNoise((0.8, 0.1, 0.1)))
    save_codebook(cb, str(tmp_path / "empty.cb"))
    assert load_codebook(str(tmp_path / "empty.cb")) == cb


@pytest.mark.parametrize("n, a", [(1, 2), (24, 2), (70, 2), (4, 3)])
def test_identical_words_decode_to_index_zero(n, a):
    # one run of equal keys spans the whole index
    word = tuple(i % a for i in range(n))
    cb = ExplicitCodebook(n=n, rate=0.5, seed=0, alphabet_size=a, words=[word] * 9)
    assert cb.decode_to_info(word) == 0
    assert cb.bind(word)(0 if a == 2 else (0,) * n) == word


@pytest.mark.parametrize(
    "a, words, match",
    [(2, ((0, 5),), "symbols in 0..1"), (2, ((0, 0.5),), "symbols in 0..1"),
     (2, ((0, -1),), "symbols in 0..1"), (2, ((1, 1), (0, 2)), "symbols in 0..1"),
     # 300 would be 44 as a uint8 symbol
     (256, ((0, 300),), "symbols in 0..255"),
     (1, ((0, 0),), "alphabet_size must be >= 2, got 1"), (2, ((0, 1, 1),), "length mismatch"),
     (2.5, ((0, 1),), "must be an int >= 2, got 2.5"),
     (True, ((0, 1),), "alphabet_size must be an int >= 2, got True")],
)
def test_explicit_rejects_bad_stored_words(a, words, match):
    with pytest.raises(ValueError, match=match):
        ExplicitCodebook(n=2, rate=1.0, seed=0, alphabet_size=a, words=words)


@pytest.mark.parametrize("alphabet_size", [1, 0])
def test_build_rejects_alphabets_below_two(alphabet_size):
    with pytest.raises(ValueError):
        build_uniform_codebook(4, 0.5, 0, alphabet_size=alphabet_size)


@pytest.mark.parametrize(
    "n, a",
    [(1, 2), (8, 2), (24, 2), (53, 2), (54, 2), (62, 2), (63, 2), (64, 2), (80, 2),
     (5, 3), (39, 3), (40, 3), (3, 300), (8, 300), (1, 2**40), (2, 2**40),
     (1, 2**54 - 1), (1, 2**54)],
)
def test_int_keyed_index_agrees_with_tuple_oracle(n, a):
    # keys are int64 while a^n < 2^63 (binary n = 62, |A| = 3 at n = 39,
    # |A| = 300 at n = 3, |A| = 2^40 at n = 1) and Python ints beyond. With 300
    # words the index packs key << 9 | info index while a^n << 9 < 2^63: a^n =
    # 2^54 - 1 is just below that, and 2^54 (binary n = 54) at it, on the stable argsort
    rng = np.random.default_rng(1000 * n + a)
    words = rng.integers(0, a, size=(300, n))
    words[150::7] = words[:22]  # later duplicates of earlier words
    cb = ExplicitCodebook(n=n, rate=0.5, seed=0, alphabet_size=a, words=words)
    oracle = TupleIndexCodebook(n, a, words)
    assert cb.words == oracle.words and cb.size == oracle.size
    for _ in range(300):
        c = oracle.words[rng.integers(0, oracle.size)]
        z = tuple(rng.integers(0, a, size=n).tolist())
        hit = tuple((s + t) % a for s, t in zip(c, z))
        pattern = _pack(z) if a == 2 else z
        for y in (hit, tuple(rng.integers(0, a, size=n).tolist())):
            assert cb.bind(y)(pattern) == oracle.bind(y)(pattern)
        for word in (c, tuple(rng.integers(0, a, size=n).tolist())):
            assert cb.contains(word) == oracle.contains(word)
            if oracle.contains(word):
                assert cb.decode_to_info(word) == oracle.decode_to_info(word)
            else:
                with pytest.raises(NotACodewordError):
                    cb.decode_to_info(word)


def test_duplicates_resolve_to_the_lowest_index_like_the_oracle():
    words = ((1, 0, 2), (0, 0, 0), (1, 0, 2), (2, 2, 1), (0, 0, 0), (1, 0, 2))
    cb = ExplicitCodebook(n=3, rate=0.5, seed=0, alphabet_size=3, words=words)
    oracle = TupleIndexCodebook(3, 3, words)
    for w in words:
        assert cb.decode_to_info(w) == oracle.decode_to_info(w) == words.index(w)


def _word_of_key(key: int, n: int, a: int) -> tuple[int, ...]:
    return tuple(key // a ** (n - 1 - i) % a for i in range(n))


@pytest.mark.parametrize("n, a", [(24, 2), (70, 2), (16, 3), (45, 3)])
def test_prefilter_worst_case_agrees_with_tuple_oracle(n, a):
    # every word stored or queried has a key = 1234 mod 2^12 (for binary: the
    # same last 12 symbols), so a prefilter of up to 2^12 slots lets every query
    # through to the sorted keys; n = 70 and 45 give keys past int64
    rnd = random.Random(7 * n + a)
    draw = lambda: _word_of_key(1234 + 2**12 * rnd.randrange(a**n >> 12), n, a)
    words = [draw() for _ in range(300)]
    words[150::7] = words[:22]  # later duplicates of earlier words
    cb = ExplicitCodebook(n=n, rate=0.5, seed=0, alphabet_size=a, words=words)
    oracle = TupleIndexCodebook(n, a, words)
    for target in words + [draw() for _ in range(300)]:
        z = tuple(rnd.randrange(a) for _ in range(n))
        y = tuple((s + t) % a for s, t in zip(target, z))
        pattern = _pack(z) if a == 2 else z
        assert cb.bind(y)(pattern) == oracle.bind(y)(pattern)
        assert cb.contains(target) == oracle.contains(target)
        if oracle.contains(target):
            assert cb.decode_to_info(target) == oracle.decode_to_info(target)
        else:
            with pytest.raises(NotACodewordError):
                cb.decode_to_info(target)


@pytest.mark.parametrize("n, a", [(24, 2), (70, 2), (9, 3), (45, 3)])
def test_explicit_codebook_survives_a_pickle_round_trip(n, a):
    # the path a codebook takes to simulator worker processes; n = 70 and 45
    # give keys past int64
    rng = np.random.default_rng(n + a)
    words = rng.integers(0, a, size=(200, n))
    words[100::5] = words[:20]
    cb = ExplicitCodebook(n=n, rate=0.5, seed=3, alphabet_size=a, words=words)
    copy = pickle.loads(pickle.dumps(cb))
    assert copy == cb
    for word in [cb.words[i] for i in range(0, 200, 3)] + rng.integers(0, a, (50, n)).tolist():
        word = tuple(word)
        assert copy.contains(word) == cb.contains(word)
        if cb.contains(word):
            assert copy.decode_to_info(word) == cb.decode_to_info(word)
        z = tuple(rng.integers(0, a, size=n).tolist())
        y = tuple((s + t) % a for s, t in zip(word, z))
        pattern = _pack(z) if a == 2 else z
        assert copy.bind(y)(pattern) == cb.bind(y)(pattern)


def test_stored_words_compare_by_their_symbols():
    # two symbol arrays compare as arrays; any other sequence, word by word
    cb = build_uniform_codebook(12, 0.5, seed=4, alphabet_size=3)
    copy = pickle.loads(pickle.dumps(cb))
    assert copy.words == cb.words == [tuple(row) for row in cb.words.array.tolist()]
    changed = cb.words.array.copy()
    changed[5, 7] = (changed[5, 7] + 1) % 3
    other = ExplicitCodebook(n=12, rate=0.5, seed=4, alphabet_size=3, words=changed)
    assert other != cb and other.words != cb.words
    assert cb.words != [tuple(row) for row in changed.tolist()]
    assert cb.words != cb.words.array.tolist()  # lists of lists are not int tuples


def test_explicit_membership_exhaustive():
    cb = build_uniform_codebook(8, 0.5, seed=9)
    members = set(cb.words)
    for w in itertools.product((0, 1), repeat=8):
        assert cb.contains(w) == (w in members)


def test_explicit_roundtrip_and_collisions():
    words = ((0, 1), (0, 1), (1, 1))  # deliberate duplicate
    cb = ExplicitCodebook(n=2, rate=1.0, seed=0, alphabet_size=2, words=words)
    assert cb.encode(0) == (0, 1)
    assert cb.encode(1) == (0, 1)
    # collision resolves to the lowest info index
    assert cb.decode_to_info((0, 1)) == 0
    assert cb.decode_to_info((1, 1)) == 2
    with pytest.raises(NotACodewordError):
        cb.decode_to_info((0, 0))


def test_explicit_roundtrip_all_info_words():
    cb = build_uniform_codebook(8, 0.5, seed=2)
    seen = set()
    for i in range(cb.size):
        w = cb.encode(i)
        if w not in seen:
            assert cb.decode_to_info(w) == i
            seen.add(w)


def test_linear_rate_one_accepts_everything():
    cb = build_linear_codebook(5, 5, seed=0)
    for w in itertools.product((0, 1), repeat=5):
        assert cb.contains(w)


def test_hamming_membership_exact():
    cb = LinearCodebook(HAMMING_G)
    codewords = {
        cb.encode(u) for u in itertools.product((0, 1), repeat=4)
    }
    assert len(codewords) == 16
    for w in itertools.product((0, 1), repeat=7):
        assert cb.contains(w) == (w in codewords)


def test_hamming_weight_one_corruption_not_member():
    cb = LinearCodebook(HAMMING_G)
    c = cb.encode((1, 0, 1, 1))
    for i in range(7):
        w = list(c)
        w[i] ^= 1
        assert not cb.contains(w)


def test_linear_encode_is_matrix_product():
    cb = build_linear_codebook(12, 5, seed=4)
    g = np.array(cb.generator, dtype=np.uint8)
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = rng.integers(0, 2, size=5, dtype=np.uint8)
        assert cb.encode(u) == tuple(int(b) for b in (u @ g) % 2)
        assert cb.contains(cb.encode(u))


def test_linear_generator_parity_orthogonal():
    # membership is exactly a zero syndrome under H = [P^T | I]; H y is read
    # from one table per byte of y, so the lengths straddle the byte edges. Up to
    # n = 10 every word is asked: the (10, 5) code's 32 codewords and 992 other words
    for n in (1, 7, 8, 9, 10, 15, 16, 17, 75):
        k = (n + 1) // 2
        cb = build_linear_codebook(n, k, seed=8)
        g = np.array(cb.generator, dtype=np.uint8)
        h = np.concatenate([g[:, k:].T, np.eye(n - k, dtype=np.uint8)], axis=1)
        assert not ((g @ h.T) % 2).any()
        rng = np.random.default_rng(8)
        words = (np.array(list(itertools.product((0, 1), repeat=n))) if n <= 10
                 else rng.integers(0, 2, size=(300, n)))
        for w in words:
            for word in (w, cb.encode(w[:k])):
                member = not ((h @ word) % 2).any()
                assert cb.contains(word) == member, n
                if member:
                    assert cb.decode_to_info(word) == tuple(int(b) for b in word[:k])
                else:
                    with pytest.raises(NotACodewordError, match="not in the codebook"):
                        cb.decode_to_info(word)


def test_linear_bind_at_the_operating_point_matches_re_encoding():
    """bind(y)(z) at n = 75, k = 54 on every pattern of weight <= 2: y XOR z
    is a codeword exactly when re-encoding its first k bits gives it back.
    The received words are codewords plus noise, so the syndrome of y is
    non-zero and must enter every query."""
    n, k = 75, 54
    cb = build_linear_codebook(n, k, seed=1)
    g = np.array(cb.generator, dtype=np.int64)
    rng = np.random.default_rng(75)
    patterns = [0, *(1 << i for i in range(n))]
    patterns += [(1 << i) | (1 << j) for i in range(n) for j in range(i)]
    assert len(patterns) == 2851
    for t in range(20):
        sent = _pack(cb.encode(rng.integers(0, 2, size=k)))
        noise = sum(1 << int(i) for i in rng.choice(n, size=1 + t % 4, replace=False))
        y_packed = sent ^ noise
        words = np.array([_unpack(y_packed ^ z, n) for z in patterns])
        member = ((words[:, :k] @ g) % 2 == words).all(axis=1)
        hit = cb.bind(_unpack(y_packed, n))
        for z, word, is_member in zip(patterns, words.tolist(), member):
            assert hit(z) == (tuple(word) if is_member else None), (t, z)
        if noise.bit_count() <= 2:
            assert hit(noise) == _unpack(sent, n)


def test_linear_encode_xors_the_rows_of_a_binary_info_word():
    # the byte-edge lengths of test_linear_generator_parity_orthogonal
    rng = np.random.default_rng(5)
    for n in (1, 7, 8, 9, 15, 16, 17, 75):
        k = (n + 1) // 2
        cb = build_linear_codebook(n, k, seed=8)
        g = np.array(cb.generator, dtype=np.int64)
        for u in rng.integers(0, 2, size=(50, k)):
            expected = tuple(int(b) for b in (u @ g) % 2)
            assert cb.encode(u) == cb.encode(tuple(map(int, u))) == expected, n
        for bad in (2, 0.5, -1, 256):  # not binary: an error, never a 0 bit
            with pytest.raises(ValueError, match="info word must be binary"):
                cb.encode((bad,) + (0,) * (k - 1))
        for length in (k - 1, k + 1):
            with pytest.raises(ValueError, match="length mismatch"):
                cb.encode((0,) * length)


def test_linear_roundtrip():
    cb = build_linear_codebook(10, 4, seed=1)
    for u in itertools.product((0, 1), repeat=4):
        assert cb.decode_to_info(cb.encode(u)) == u


def test_contains_rejects_symbols_outside_the_alphabet():
    cb = build_linear_codebook(8, 4, 0)
    # reduced mod 2, (2,) * 8 would be the zero codeword
    assert not cb.contains((2,) * 8)
    assert not cb.contains((0,) * 7 + (-1,))
    ex = build_uniform_codebook(4, 0.0, seed=0, alphabet_size=3)
    assert not ex.contains(tuple(s + 3 for s in ex.words[0]))


def test_contains_is_false_for_non_integral_symbols():
    assert not LinearCodebook(HAMMING_G).contains((0.9,) * 7)
    assert not LinearCodebook(HAMMING_G).contains((1, 0, 0, 0, 1, 1, 0.5))
    assert not build_uniform_codebook(8, 0.5, seed=0).contains((0.9,) * 8)


@pytest.mark.parametrize(
    "kwargs", [dict(n=0, rate=0.5), dict(n=-1, rate=0.5),
               dict(n=10, rate=0.5, alphabet_size=1), dict(n=10, rate=-0.1),
               dict(n=10, rate=math.nan), dict(n=10, rate=math.inf),
               dict(n=8, rate=0.5, alphabet_size=2.5), dict(n=8, rate=0.5, alphabet_size=True)],
)
def test_u_hit_model_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        UHitModel(**kwargs)


# every entry point that takes an alphabet size, called with it
ALPHABET_TAKERS = {
    "codebook_size": lambda a: codebook_size(a, 4, 0.5),
    "UHitModel": lambda a: UHitModel(n=8, rate=0.5, alphabet_size=a).M_n,
    "ExplicitCodebook": lambda a: ExplicitCodebook(
        n=2, rate=0.5, seed=0, alphabet_size=a, words=[(0, 1)]),
    "build_uniform_codebook": lambda a: build_uniform_codebook(4, 0.5, 1, alphabet_size=a),
}


@pytest.mark.parametrize("entry", ALPHABET_TAKERS)
def test_every_alphabet_size_is_an_int_of_at_least_two(entry):
    call = ALPHABET_TAKERS[entry]
    for value in (2.5, True, False, 3.0, np.float64(3.0), "3", 1, 0, -2, np.int64(1)):
        with pytest.raises(ValueError, match="^alphabet_size must be (an int )?>= 2, got "):
            call(value)
    assert call(3) == call(np.int64(3)) == call(np.uint8(3))
    if entry.lower().endswith("codebook"):
        assert type(call(np.int64(3)).alphabet_size) is int


@pytest.mark.parametrize("rate", [-0.1, math.nan, math.inf])
def test_size_formula_rejects_negative_or_non_finite_rate(rate):
    with pytest.raises(ValueError, match="rate must be non-negative and finite"):
        codebook_size(2, 10, rate)


def test_linear_decode_to_info_rejects_non_binary_words():
    cb = LinearCodebook(HAMMING_G)
    # reduced mod 2 these are the zero codeword
    for word in ((2,) * 7, (0, 0, 0, 0, 0, 0, -2)):
        with pytest.raises(NotACodewordError, match="not binary"):
            cb.decode_to_info(word)


def test_u_survival_boundaries():
    m = UHitModel(n=8, rate=0.5)
    assert u_survival_exact(m, 0) == 1.0
    assert u_survival_exact(m, 2**8) == 0.0
    assert u_survival_approx(m, 0) == 1.0


def test_u_survival_approx_at_characteristic_scale():
    m = UHitModel(n=16, rate=0.5)
    t = 2 ** (16 // 2)  # |A|^(n(1-R))
    assert u_survival_approx(m, t) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_u_survival_exact_matches_direct_product():
    m = UHitModel(n=10, rate=0.5)
    M, T = m.M_n, 2**10
    for t in (1, 17, 500, 1000):
        assert u_survival_exact(m, t) == pytest.approx((1 - t / T) ** M, rel=1e-12)


def test_u_survival_large_block_log_domain():
    m = UHitModel(n=700, rate=0.965)
    s = u_survival_exact(m, 143915)
    assert 0.0 < s < 1.0
    # matches the exponential approximation closely at this scale
    assert s == pytest.approx(u_survival_approx(m, 143915), rel=1e-4)


def test_u_approximation_error_shrinks_with_block_length():
    # frozen oracle bound at n=16 (computed from the exact product formula)
    devs = {}
    for n in (8, 16, 24):
        m = UHitModel(n=n, rate=0.8)
        prev_e, prev_a, worst = 1.0, 1.0, 0.0
        for t in range(1, 101):
            e, a = u_survival_exact(m, t), u_survival_approx(m, t)
            worst = max(worst, abs((prev_e - e) - (prev_a - a)))
            prev_e, prev_a = e, a
        devs[n] = worst
    assert devs[16] < 1e-5
    assert devs[8] > devs[16] > devs[24]


def test_u_mean_exponent_approaches_one_minus_rate():
    R = 0.5
    errs = []
    for n in (8, 16, 24):
        m = UHitModel(n=n, rate=R)
        T = 2**n
        t = np.arange(T, dtype=np.float64)
        mean = float(np.exp(m.M_n * np.log1p(-t / T)).sum())
        errs.append(abs(math.log2(mean) / n - (1 - R)))
    assert errs[0] > errs[1] > errs[2]


def test_u_sampling_matches_law():
    m = UHitModel(n=10, rate=0.5)
    rng = np.random.default_rng(42)
    samples = [sample_u_exact(m, float(v)) for v in rng.random(4000)]
    # empirical survival at a few thresholds vs the exact law
    for t in (2, 8, 32, 96):
        emp = sum(s > t for s in samples) / len(samples)
        exact = u_survival_exact(m, t)
        assert emp == pytest.approx(exact, abs=4 * math.sqrt(exact * (1 - exact) / 4000))


@pytest.mark.parametrize(
    "n, rate, alphabet_size", [(1500, 0.9, 2), (200, 0.5, 3), (200, 0.05, 3)]
)
def test_u_sample_precision_matches_wide_precision(n, rate, alphabet_size):
    m = UHitModel(n=n, rate=rate, alphabet_size=alphabet_size)
    rng = np.random.default_rng(n + alphabet_size)
    # survival levels from near 1 down to 1e-300: hit times from 1 past T / M,
    # and for the small M of R = 0.05 within two digits of T
    vs = [*rng.random(400), *(1.0 - 10.0 ** -rng.uniform(1, 15, 300)),
          *(10.0 ** -rng.uniform(1, 300, 300))]
    assert [sample_u_exact(m, v) for v in vs] == [sample_u_wide(m, v) for v in vs]


def test_codeword_guess_positions_uniform():
    # ranks of non-transmitted codewords in the guess order should show no
    # preference for any decile of the full order
    model = bsc(0.1)
    n, total = 10, 2**10
    counts = [0] * 10
    for seed in range(200):
        cb = build_uniform_codebook(n, 0.5, seed=seed)
        c0 = cb.words[0]
        for c in cb.words[1:]:
            z = tuple(a ^ b for a, b in zip(c, c0))
            r = guess_rank(model, z)
            counts[min((r - 1) * 10 // total, 9)] += 1
    total_obs = sum(counts)
    expected = total_obs / 10
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 27.9  # 0.1% critical value for 9 degrees of freedom


def test_serialization_roundtrip_explicit(tmp_path):
    cb = build_uniform_codebook(12, 0.5, seed=77)
    path = tmp_path / "cb.bin"
    save_codebook(cb, str(path))
    loaded = load_codebook(str(path))
    assert isinstance(loaded, ExplicitCodebook)
    assert loaded.words == cb.words
    assert loaded.n == cb.n and loaded.seed == cb.seed
    assert loaded.rate == pytest.approx(cb.rate)


def test_serialization_roundtrip_linear(tmp_path):
    cb = build_linear_codebook(13, 6, seed=3)
    path = tmp_path / "cb.bin"
    save_codebook(cb, str(path))
    loaded = load_codebook(str(path))
    assert isinstance(loaded, LinearCodebook)
    assert loaded.generator == cb.generator


def _make_codebook(*args):
    assert main(["make-codebook", *args]) == 0


@pytest.mark.parametrize(
    # SHA-256 of the files as written when the words were int tuples
    "write, digest",
    [
        (lambda path: _make_codebook("--kind", "explicit", "--n", "24", "--rate", "0.75",
                                     "--seed", "1", "--out", path),
         "e7af7be3eaf20eac4806ea5fdd7dc5a6fe47c75a7cb2072711e9873adb3e4570"),
        (lambda path: save_codebook(build_uniform_codebook(10, 0.5, 4, alphabet_size=3), path),
         "bc3d61ec5b32d3c717e8053bfcc5819dd2d1240d9a8b66d1e3f79bf7a3c92beb"),
        (lambda path: _make_codebook("--kind", "linear", "--n", "75", "--k", "54",
                                     "--seed", "2", "--out", path),
         "86936843be7299b6283c30fa2b3b6aa1eb8d2bd38415b2ad3b9ef8fbc6e377ad"),
    ],
    ids=["explicit-binary-n24", "explicit-ternary", "linear"],
)
def test_saved_files_keep_their_bytes(tmp_path, capsys, write, digest):
    path = tmp_path / "cb.gkcb"
    write(str(path))
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    path.write_bytes(data)
    save_codebook(load_codebook(str(path)), str(path))
    assert path.read_bytes() == data


def test_a_failed_save_writes_no_file(tmp_path):
    path = tmp_path / "cb.bin"
    cb = ExplicitCodebook(n=2, rate=0.5, seed=0, alphabet_size=300, words=[(0, 299)])
    with pytest.raises(ValueError, match="alphabets up to 256 symbols"):
        save_codebook(cb, str(path))
    assert not path.exists()


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a codebook")
    with pytest.raises(ValueError):
        load_codebook(str(path))


@st.composite
def small_codebooks(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    if draw(st.booleans()):
        return build_linear_codebook(n, draw(st.integers(1, n)), seed)
    rate = draw(st.floats(min_value=0.0, max_value=0.6))
    return build_uniform_codebook(n, rate, seed, alphabet_size=draw(st.sampled_from((2, 3, 4))))


@given(cb=small_codebooks())
@settings(max_examples=30, deadline=None)
def test_load_roundtrips_and_rejects_every_truncation(cb):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cb.bin"
        save_codebook(cb, str(path))
        data = path.read_bytes()
        loaded = load_codebook(str(path))
        if isinstance(cb, LinearCodebook):
            assert loaded.generator == cb.generator
        else:
            assert loaded.words == cb.words
            assert loaded.alphabet_size == cb.alphabet_size
        for bad in [data[:cut] for cut in range(len(data))] + [data + b"\0"]:
            path.write_bytes(bad)
            with pytest.raises(ValueError):
                load_codebook(str(path))


def test_load_rejects_header_body_mismatch(tmp_path):
    path = tmp_path / "cb.bin"
    save_codebook(build_linear_codebook(16, 8, seed=2), str(path))
    data = path.read_bytes()
    n, k, seed = struct.unpack_from("<IIQ", data, 7)
    path.write_bytes(data[:7] + struct.pack("<IIQ", n, k + 1, seed) + data[23:])
    with pytest.raises(ValueError, match="header implies"):
        load_codebook(str(path))


@pytest.mark.parametrize("entry", [2, 0.5, -1, 257])
def test_linear_rejects_generator_entries_other_than_0_and_1(entry):
    # a cast to uint8 would read 2 as a 1 bit for membership but encode it mod 2 as 0
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        LinearCodebook(((1, 0, entry, 1), (0, 1, 1, 0)))


@pytest.mark.parametrize(
    "n, rate, a, body, match",
    [
        (2, 0.5, 1000, bytes([0, 5]), "alphabets up to 256 symbols"),
        (2, math.nan, 3, bytes([0, 2]), "rate must be non-negative and finite"),
        (2, -0.5, 3, bytes([0, 2]), "rate must be non-negative and finite"),
        (0, 0.5, 2, b"", "n must be >= 1"),
    ],
)
def test_load_rejects_bad_explicit_header_fields(tmp_path, n, rate, a, body, match):
    path = tmp_path / "cb.bin"
    header = struct.pack("<IQQdH", n, 1, 0, rate, a)
    path.write_bytes(codebook._MAGIC_EXPLICIT + header + body)
    with pytest.raises(ValueError, match=match):
        load_codebook(str(path))


def test_load_rejects_symbol_outside_alphabet(tmp_path):
    path = tmp_path / "cb.bin"
    save_codebook(build_uniform_codebook(4, 0.5, seed=1, alphabet_size=3), str(path))
    data = bytearray(path.read_bytes())
    data[-1] = 3
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="alphabet"):
        load_codebook(str(path))


@given(cb=small_codebooks(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_bind_agrees_with_contains(cb, data):
    """bind(y)(z) is the codeword y - z when the codebook holds it, else None;
    binary patterns are packed ints."""
    a, n = cb.alphabet_size, cb.n
    word = st.tuples(*[st.integers(0, a - 1)] * n)
    z = data.draw(word)
    if isinstance(cb, LinearCodebook):
        c = cb.encode(data.draw(st.tuples(*[st.integers(0, 1)] * cb.k)))
    else:
        c = cb.words[data.draw(st.integers(0, cb.size - 1))]
    # a received word drawn at random, and one that z maps onto a codeword
    for y in (data.draw(word), tuple((s + t) % a for s, t in zip(c, z))):
        diff = tuple((s - t) % a for s, t in zip(y, z))
        got = cb.bind(y)(_pack(z) if a == 2 else z)
        assert got == (diff if cb.contains(diff) else None)
        # membership worked out without bind
        if isinstance(cb, LinearCodebook):
            assert cb.contains(diff) == (cb.encode(diff[: cb.k]) == diff)
        else:
            assert cb.contains(diff) == (diff in set(cb.words))
