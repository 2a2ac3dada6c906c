import itertools
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    u_survival_approx,
    u_survival_exact,
)
from grandkit.guesswork import guess_rank
from grandkit.noise_models import bsc

# Systematic generator of the distance-3 single-error-correcting (7,4) code.
HAMMING_G = (
    (1, 0, 0, 0, 1, 1, 0),
    (0, 1, 0, 0, 1, 0, 1),
    (0, 0, 1, 0, 0, 1, 1),
    (0, 0, 0, 1, 1, 1, 1),
)


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
    cb = build_linear_codebook(15, 7, seed=8)
    g = np.array(cb.generator, dtype=np.uint8)
    h = cb.parity_check
    assert not ((g @ h.T) % 2).any()


def test_linear_roundtrip():
    cb = build_linear_codebook(10, 4, seed=1)
    for u in itertools.product((0, 1), repeat=4):
        assert cb.decode_to_info(cb.encode(u)) == u


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
    return build_uniform_codebook(n, rate, seed, alphabet_size=draw(st.sampled_from((2, 3))))


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


def test_load_rejects_symbol_outside_alphabet(tmp_path):
    path = tmp_path / "cb.bin"
    save_codebook(build_uniform_codebook(4, 0.5, seed=1, alphabet_size=3), str(path))
    data = bytearray(path.read_bytes())
    data[-1] = 3
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="alphabet"):
        load_codebook(str(path))
