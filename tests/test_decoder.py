import array
import itertools
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from grandkit.codebook import (
    ExplicitCodebook,
    LinearCodebook,
    NotACodewordError,
    UHitModel,
    build_linear_codebook,
    build_uniform_codebook,
    sample_u_exact,
)
from grandkit.analysis import abandonment_threshold
from grandkit.decoder import DecodeStatus, _leaders, grand_decode
from grandkit.guesswork import guess_rank, iter_guesses
from grandkit.noise_models import (
    BinaryMarkovNoise,
    IIDNoise,
    bsc,
    sample_noise_with,
)

from .oracles import (
    TupleIndexCodebook,
    brute_force_ml,
    linear_code_brute,
    linear_code_exact,
    sample_noise,
    sequence_log_prob,
    walk_decode,
)
from .test_codebook import HAMMING_G


def _xor(a, b):
    return tuple(x ^ y for x, y in zip(a, b))


def test_received_codeword_decodes_in_one_query():
    cb = build_uniform_codebook(8, 0.5, seed=0)
    y = cb.encode(3)
    res = grand_decode(cb, y, bsc(0.1))
    assert res.status is DecodeStatus.DECODED
    assert res.decoded == y
    assert res.queries == 1


def test_queries_equal_rank_of_implied_noise():
    model = bsc(0.1)
    cb = build_uniform_codebook(10, 0.4, seed=5)
    rng = np.random.default_rng(1)
    for t in range(100):
        c = cb.encode(int(rng.integers(cb.size)))
        z = sample_noise(model, 10, rng_seed=t)
        y = _xor(c, tuple(int(b) for b in z))
        res = grand_decode(cb, y, model)
        implied = _xor(y, res.decoded)
        assert res.queries == guess_rank(model, implied)


@pytest.mark.parametrize(
    "model", [bsc(0.1), BinaryMarkovNoise(0.1, 0.3)]
)
def test_ml_equivalence_small_blocks(model):
    rng = np.random.default_rng(9)
    for t in range(200):
        n = int(rng.integers(8, 13))
        cb = build_uniform_codebook(n, 0.5, seed=t)
        c = cb.encode(int(rng.integers(cb.size)))
        z = sample_noise(model, n, rng_seed=10_000 + t)
        y = _xor(c, tuple(int(b) for b in z))
        got = grand_decode(cb, y, model).decoded
        best = brute_force_ml(cb, y, model)
        lp_got = sequence_log_prob(model, _xor(y, got))
        lp_best = sequence_log_prob(model, _xor(y, best))
        assert abs(lp_got - lp_best) <= 1e-12


def test_hamming_corrects_single_flips():
    cb = LinearCodebook(HAMMING_G)
    model = bsc(0.05)
    c = cb.encode((1, 1, 0, 1))
    for i in range(7):
        y = list(c)
        y[i] ^= 1
        res = grand_decode(cb, y, model)
        assert res.decoded == c
        assert res.queries <= 8


def test_modular_subtraction_nonbinary():
    model = IIDNoise((0.7, 0.2, 0.1))
    cb = build_uniform_codebook(5, 0.4, seed=2, alphabet_size=3)
    c = cb.encode(0)
    z = (0, 1, 0, 0, 2)
    y = tuple((a + b) % 3 for a, b in zip(c, z))
    res = grand_decode(cb, y, model)
    # the implied noise must reproduce y under modular addition
    implied = tuple((a - b) % 3 for a, b in zip(y, res.decoded))
    assert tuple((a + b) % 3 for a, b in zip(res.decoded, implied)) == y


def test_abandonment_after_one_query():
    cb = build_uniform_codebook(8, 0.25, seed=1)
    model = bsc(0.1)
    y = cb.encode(0)
    assert grand_decode(cb, y, model, max_queries=1).status is DecodeStatus.DECODED
    # find a received word whose first guess misses the codebook
    for v in range(256):
        w = tuple((v >> (7 - i)) & 1 for i in range(8))
        if not cb.contains(w):
            res = grand_decode(cb, w, model, max_queries=1)
            assert res.status is DecodeStatus.ABANDONED
            assert res.queries == 1
            assert res.decoded is None
            break


def test_abandonment_never_changes_the_decoding():
    model = bsc(0.15)
    cb = build_uniform_codebook(9, 0.4, seed=6)
    rng = np.random.default_rng(2)
    for t in range(100):
        c = cb.encode(int(rng.integers(cb.size)))
        z = sample_noise(model, 9, rng_seed=t)
        y = _xor(c, tuple(int(b) for b in z))
        full = grand_decode(cb, y, model)
        limited = grand_decode(cb, y, model, max_queries=16)
        if limited.status is DecodeStatus.DECODED:
            assert limited.decoded == full.decoded
            assert limited.queries == full.queries
        else:
            assert full.queries > 16
            assert limited.queries == 16


def test_decodes_at_the_operating_point():
    # BSC(0.01), n = 75, k = 54, the paper's headline point, which the
    # small-n oracle tests never reach
    model = bsc(0.01)
    cb = build_linear_codebook(75, 54, seed=1)
    rng = np.random.default_rng(75)
    for w in (3, 4):
        c = cb.encode(tuple(int(b) for b in rng.integers(0, 2, size=54)))
        flips = set(rng.choice(75, size=w, replace=False).tolist())
        z = tuple(int(i in flips) for i in range(75))
        y = _xor(c, z)
        res = grand_decode(cb, y, model)
        assert res.status is DecodeStatus.DECODED
        assert cb.contains(res.decoded)
        implied = _xor(y, res.decoded)
        assert res.queries == guess_rank(model, implied) <= guess_rank(model, z)
        assert res.decoded_log_prob == sequence_log_prob(model, implied)


def test_abandonment_exactly_at_the_budget_at_the_operating_point():
    model = bsc(0.01)
    cb = build_linear_codebook(75, 54, seed=1)
    c = cb.encode((1, 0) * 27)
    y = _xor(c, (1,) + (0,) * 73 + (1,))  # weight 2, rank 2778
    full = grand_decode(cb, y, model)
    assert full.queries > 100
    res = grand_decode(cb, y, model, max_queries=100)
    assert res == grand_decode(cb, y, model, max_queries=100)
    assert (res.status, res.queries, res.decoded) == (DecodeStatus.ABANDONED, 100, None)
    short = grand_decode(cb, y, model, max_queries=full.queries - 1)
    assert (short.status, short.queries) == (DecodeStatus.ABANDONED, full.queries - 1)
    assert grand_decode(cb, y, model, max_queries=full.queries) == full


def _noisy(cb, z, rng):
    """A random codeword of the linear code ``cb`` plus the noise ``z``."""
    c = cb.encode(tuple(int(b) for b in rng.integers(0, 2, size=cb.k)))
    return _xor(c, z)


@pytest.mark.parametrize("budget", [1, 76, 77, 2850, 2851, 2852, 64026])
def test_syndrome_lookup_decodes_like_the_walk_at_the_operating_point(budget):
    # the cached prefix is weights 0-2, 2851 patterns: the noise is each guess at
    # its edges (the last weight-1, the first weight-2, the last in the prefix and
    # the first two past it) and random noise of weight 0-4; the budgets hit and
    # abandon on each side of the prefix's end
    model = bsc(0.01)
    cb = build_linear_codebook(75, 54, seed=1)
    assert _leaders(cb, model)[1] == 2851
    guesses = [z for z, _ in itertools.islice(iter_guesses(model, 75), 2853)]
    noise = [guesses[i] for i in (0, 75, 76, 2849, 2850, 2851, 2852)]
    rng = np.random.default_rng(budget)
    for w in range(5):
        for _ in range(2):
            flips = set(rng.choice(75, size=w, replace=False).tolist())
            noise.append(tuple(int(i in flips) for i in range(75)))
    for z in noise:
        y = _noisy(cb, z, rng)
        assert grand_decode(cb, y, model, max_queries=budget) == walk_decode(cb, y, model, budget)


@pytest.mark.parametrize(
    "model, n, k",
    [
        (BinaryMarkovNoise(0.05, 0.3), 24, 12),
        (bsc(0.5), 16, 8),  # one tie group of 2^16 patterns: the prefix is empty
    ],
)
def test_syndrome_lookup_decodes_like_the_walk(model, n, k):
    cb = build_linear_codebook(n, k, seed=n)
    size = _leaders(cb, model)[1]
    assert (size == 0) == (model == bsc(0.5))
    rng = np.random.default_rng(k)
    for t in range(24):
        # noise of the model, then noise that is uniform, which ends past the prefix
        z = sample_noise_with(model, n, rng) if t % 2 else rng.integers(0, 2, size=n)
        y = _noisy(cb, tuple(int(b) for b in z), rng)
        for budget in (None, 1, max(size, 1), size + 1, 2 * size + 50):
            assert grand_decode(cb, y, model, budget) == walk_decode(cb, y, model, budget)


@pytest.mark.parametrize("model", [bsc(0.1), BinaryMarkovNoise(0.1, 0.3)])
def test_syndrome_lookup_is_ml_where_the_prefix_holds_every_pattern(model):
    # n = 10: all 2^10 patterns fit in the prefix, so no decode walks
    cb = build_linear_codebook(10, 5, seed=3)
    assert _leaders(cb, model)[1] == 2**10
    words = [cb.encode(u) for u in itertools.product((0, 1), repeat=5)]
    explicit = ExplicitCodebook(n=10, rate=0.5, seed=0, alphabet_size=2, words=words)
    for v in range(2**10):
        y = tuple((v >> (9 - i)) & 1 for i in range(10))
        res = grand_decode(cb, y, model)
        assert res == walk_decode(cb, y, model)
        best = brute_force_ml(explicit, y, model)
        assert res.decoded_log_prob == sequence_log_prob(model, _xor(y, best))
        assert res.decoded_log_prob == sequence_log_prob(model, _xor(y, res.decoded))


@pytest.mark.parametrize(
    "model, n, k, budgets",
    [
        (bsc(0.05), 16, 8, (None, 20)),
        (bsc(0.2), 12, 4, (None, 100)),
        (BinaryMarkovNoise(0.05, 0.3), 14, 7, (None, 40)),
        (BinaryMarkovNoise(0.1, 0.2, initial=(0.5, 0.5)), 12, 4, (None, 100)),
    ],
)
def test_the_linear_code_oracle_sums_every_noise(model, n, k, budgets):
    # the oracle's walk and syndrome law against a sum over all 2^n noises, each ranked
    # by guess_rank; the budgets leave some syndromes unmet
    cb = build_linear_codebook(n, k, seed=n)
    for budget in budgets:
        exact, brute = linear_code_exact(cb, model, budget), linear_code_brute(cb, model, budget)
        assert exact.abandon > 0 if budget else exact.abandon == 0
        for field in ("correct", "abandon", "queries"):
            want = getattr(brute, field)
            assert getattr(exact, field) == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert exact.first.keys() == brute.first.keys()
        for s, (q, z, prob) in brute.first.items():
            assert exact.first[s][:2] == (q, z)
            assert exact.first[s][2] == pytest.approx(prob, rel=1e-12)


@pytest.mark.parametrize(
    "model, n, k, seed, patterns, syndromes",
    [(bsc(0.01), 75, 54, 1, 2851, 2845), (BinaryMarkovNoise(0.05, 0.3), 24, 12, 24, 3938, 2637)],
)
def test_the_syndrome_table_holds_the_oracles_first_patterns(model, n, k, seed, patterns,
                                                              syndromes):
    # every syndrome the oracle meets within the head has an entry: its first pattern,
    # with q(s) + 1 queries and that pattern's log-probability
    cb = build_linear_codebook(n, k, seed)
    table, size, _ = _leaders(cb, model)
    assert (size, len(table)) == (patterns, syndromes)
    exact = linear_code_exact(cb, model, budget=size)
    assert {s: entry[:2] for s, entry in table.items()} == {
        s: (q + 1, z) for s, (q, z, _) in exact.first.items()}
    for s, (_, _, prob) in exact.first.items():
        assert 2 ** table[s][2] == pytest.approx(prob, rel=1e-12)


def test_one_code_keeps_one_syndrome_index_per_model():
    cb = build_linear_codebook(24, 12, seed=5)
    models = (bsc(0.05), BinaryMarkovNoise(0.05, 0.3))
    rng = np.random.default_rng(5)
    tables = None
    for _ in range(3):
        for model in models:  # interleaved, so a mixed-up index would show
            y = _noisy(cb, tuple(int(b) for b in sample_noise_with(model, 24, rng)), rng)
            assert grand_decode(cb, y, model) == walk_decode(cb, y, model)
        if tables is None:
            tables = dict(cb._leader_tables)
        assert cb._leader_tables.keys() == set(models)
        assert all(cb._leader_tables[m] is tables[m] for m in models)  # built once
    assert tables[models[0]] != tables[models[1]]


@pytest.mark.parametrize("model", [bsc(0.05), BinaryMarkovNoise(0.05, 0.3)])
@pytest.mark.parametrize("n, k", [(8, 8), (12, 6), (24, 12)])
def test_a_linear_decode_of_c_plus_z_is_c_plus_the_decode_of_z(model, n, k):
    # the all-zero codeword argument that linear-mode trials rest on: y = c + z
    # and z have one syndrome, so each guess hits for both or for neither. k = n
    # is the code of every word; at n = 12 the prefix holds every pattern, at
    # n = 24 uniform noise walks past it; the budgets end on each side of it
    cb = build_linear_codebook(n, k, seed=n + k)
    size = _leaders(cb, model)[1]
    rng = np.random.default_rng(n * k)
    budgets = [None, 1] + [b for b in (size - 1, size, size + 1) if b > 1]
    for t in range(16):
        z = sample_noise_with(model, n, rng) if t % 2 else rng.integers(0, 2, size=n)
        z = tuple(z.tolist())
        c = cb.encode(tuple(rng.integers(0, 2, size=k).tolist()))
        for budget in budgets:
            on_zero = grand_decode(cb, z, model, budget)
            on_c = grand_decode(cb, _xor(c, z), model, budget)
            assert (on_c.status, on_c.queries, on_c.decoded_log_prob) == (
                on_zero.status, on_zero.queries, on_zero.decoded_log_prob)
            if on_zero.decoded is None:
                assert on_c.decoded is None
            else:
                assert _xor(on_c.decoded, c) == on_zero.decoded


def test_threshold_value():
    # ceil(2^(75 * (0.0808 + 0.12))) = ceil(2^15.06) = 34160 (50-digit oracle)
    assert abandonment_threshold(75, 0.0808, 0.12) == 34160


def test_threshold_clamps_to_sequence_count():
    assert abandonment_threshold(10, 0.9, 0.5) == 2**10


def test_threshold_validation():
    with pytest.raises(ValueError):
        abandonment_threshold(0, 0.1, 0.1)
    with pytest.raises(ValueError):
        abandonment_threshold(10, 0.1, 0.0)
    with pytest.raises(ValueError):
        abandonment_threshold(100, 0.9, 0.1)


@pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, math.inf])
def test_threshold_rejects_non_positive_or_non_finite_delta(delta):
    with pytest.raises(ValueError, match="delta must be positive"):
        abandonment_threshold(75, 0.08, delta)


@pytest.mark.parametrize("H", [-1.0, math.nan, math.inf])
def test_threshold_rejects_negative_or_non_finite_entropy(H):
    with pytest.raises(ValueError, match="H must be non-negative and finite"):
        abandonment_threshold(10, H, 0.1)


def test_brute_force_trivialities():
    model = bsc(0.1)
    cb = build_uniform_codebook(6, 0.0, seed=0)
    assert brute_force_ml(cb, (0,) * 6, model) == cb.words[0]
    cb2 = build_uniform_codebook(8, 0.5, seed=3)
    y = cb2.encode(5)
    assert brute_force_ml(cb2, y, model) == y


def test_empty_codebook_rejected():
    from grandkit.codebook import ExplicitCodebook

    cb = ExplicitCodebook(n=3, rate=0.0, seed=0, alphabet_size=2, words=())
    with pytest.raises(ValueError):
        grand_decode(cb, (0, 0, 0), bsc(0.1))


@pytest.mark.parametrize(
    "cb, y, model",
    [
        (LinearCodebook(HAMMING_G), (5, 2, 5, 0, 0, 0, 0), bsc(0.1)),
        (LinearCodebook(HAMMING_G), (0, 0, 0, 0, 0, 0, -1), bsc(0.1)),
        (build_uniform_codebook(5, 0.4, seed=2, alphabet_size=3), (0, 1, 2, 3, 0),
         IIDNoise((0.7, 0.2, 0.1))),
        (LinearCodebook(HAMMING_G), (0.6,) * 7, bsc(0.1)),
        (build_uniform_codebook(8, 0.5, seed=0), (0.6,) * 8, bsc(0.1)),
        (build_uniform_codebook(5, 0.4, seed=2, alphabet_size=3), (0, 1, 1.5, 0, 0),
         IIDNoise((0.7, 0.2, 0.1))),
    ],
)
def test_received_symbols_outside_the_alphabet_rejected(cb, y, model):
    with pytest.raises(ValueError, match="outside"):
        grand_decode(cb, y, model)


def test_termination_race_matches_decoding_queries():
    # query counts from full decoding vs min(rank, sampled hit time)
    model = bsc(0.1)
    n, R = 10, 0.5
    cb_queries = []
    rng = np.random.default_rng(17)
    for t in range(400):
        cb = build_uniform_codebook(n, R, seed=5000 + t)
        c = cb.encode(int(rng.integers(cb.size)))
        z = sample_noise(model, n, rng_seed=20_000 + t)
        y = _xor(c, tuple(int(b) for b in z))
        cb_queries.append(grand_decode(cb, y, model).queries)
    hit = UHitModel(n=n, rate=R)
    race_queries = []
    for t in range(400):
        z = sample_noise(model, n, rng_seed=30_000 + t)
        g = guess_rank(model, tuple(int(b) for b in z))
        u = sample_u_exact(hit, float(rng.uniform(1e-12, 1.0)))
        race_queries.append(min(g, u))
    stat = ks_2samp(cb_queries, race_queries)
    assert stat.pvalue > 0.01


def test_int_keyed_codebook_decodes_like_the_tuple_index_oracle():
    # 2000 Markov blocks on 2^18 stored words: the same codeword, query count
    # and class for every block
    model = BinaryMarkovNoise(0.05, 0.3)
    cb = build_uniform_codebook(24, 0.75, seed=21)
    oracle = TupleIndexCodebook(24, 2, cb.words.array)
    rng = np.random.default_rng(21)
    for i in rng.integers(0, cb.size, size=2000):
        z = sample_noise_with(model, 24, rng)
        y = tuple((np.asarray(cb.words[i]) ^ z).tolist())
        assert grand_decode(cb, y, model) == grand_decode(oracle, y, model)


# Received words as each input type the boundary accepts, by what the parent of
# the one-pass byte check accepted: the type, then the word as the ints it stands for.
_ACCEPTED = {
    "tuple": lambda w: w,
    "list": list,
    "int ndarray": np.array,
    "float ndarray": lambda w: np.array(w, dtype=float),
    "array.array": lambda w: array.array("i", w),
    "bytes": bytes,
    "bools": lambda w: tuple(s == 1 for s in w),
    "np.int64": lambda w: tuple(map(np.int64, w)),
    "integral floats": lambda w: tuple(map(float, w)),
    "np.float64": lambda w: list(map(np.float64, w)),
}
# ... and the inputs it rejects: a symbol that is no integer or lies outside the
# alphabet (2 only when binary), or a word of the wrong length
_REJECTED = {
    "0.7": lambda w: (0.7,) + w[1:],
    "0.7 in a list": lambda w: [0.7] + list(w[1:]),
    "-1": lambda w: w[:-1] + (-1,),
    "2": lambda w: w[:-1] + (2,),
    "300": lambda w: w[:-1] + (300,),
    "300 in a list": lambda w: list(w[:-1]) + [300],
    "str": lambda w: "".join(map(str, w)),
}
_SHORT = {"short tuple": lambda w: w[:-1], "long list": lambda w: list(w) + [0]}

_BOUNDARY_CODEBOOKS = {
    "linear": (LinearCodebook(HAMMING_G), bsc(0.1)),
    "explicit binary": (build_uniform_codebook(8, 0.5, seed=0), bsc(0.1)),
    "explicit ternary": (
        build_uniform_codebook(5, 0.4, seed=2, alphabet_size=3), IIDNoise((0.7, 0.2, 0.1))),
}


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as e:
        return type(e), str(e)


@pytest.mark.parametrize("codebook", list(_BOUNDARY_CODEBOOKS))
@pytest.mark.parametrize("kind", [*_ACCEPTED, *_REJECTED, *_SHORT])
def test_the_boundary_accepts_and_rejects_each_input_type(kind, codebook):
    cb, model = _BOUNDARY_CODEBOOKS[codebook]
    a = cb.alphabet_size
    calls = (cb.contains, cb.decode_to_info, lambda w: grand_decode(cb, w, model))
    c = cb.encode((0, 1, 1, 0) if isinstance(cb, LinearCodebook) else 1)
    for word in (c, ((c[0] + 1) % a,) + c[1:]):  # a codeword, and a word next to one
        if kind in _SHORT:
            for call in calls:
                with pytest.raises(ValueError, match="length mismatch"):
                    call(_SHORT[kind](word))
        elif kind in _ACCEPTED or kind == "2" and a > 2:
            y = (_ACCEPTED | _REJECTED)[kind](word)
            ints = tuple(int(s) for s in y)
            for call in calls:
                assert _outcome(call, y) == _outcome(call, ints)
            if ints == c:
                assert cb.contains(y)
                assert grand_decode(cb, y, model).queries == 1
        else:
            y = _REJECTED[kind](word)
            assert cb.contains(y) is False
            with pytest.raises(NotACodewordError):
                cb.decode_to_info(y)
            with pytest.raises(ValueError, match="outside"):
                grand_decode(cb, y, model)


def test_a_syndrome_lookup_hit_starts_no_guess_stream(monkeypatch):
    # every noise of weight <= 2 is answered, or abandoned inside the budget, by
    # the one lookup, so the guess order is never walked
    model = bsc(0.01)
    cb = build_linear_codebook(75, 54, seed=1)
    rng = np.random.default_rng(75)
    head = itertools.islice(iter_guesses(model, 75), 2851)
    noisy = [_noisy(cb, z, rng) for z, _ in head]
    expected = {b: [walk_decode(cb, y, model, b) for y in noisy] for b in (None, 100)}
    assert max(r.queries for r in expected[None]) <= 2851
    expected[64026] = expected[None]  # so a budget past the prefix changes none
    assert grand_decode(cb, noisy[0], model) == expected[None][0]  # builds the code's table

    def walk(*args):
        raise AssertionError("the guess stream was started")

    monkeypatch.setattr("grandkit.decoder.guess_groups", walk)
    assert len(noisy) == 2851
    for budget, results in expected.items():
        assert [grand_decode(cb, y, model, budget) for y in noisy] == results


@pytest.mark.parametrize("codebook", ["linear", "explicit binary"])
def test_a_query_budget_is_an_int(codebook):
    cb, model = _BOUNDARY_CODEBOOKS[codebook]
    y = cb.encode((0, 1, 1, 0) if isinstance(cb, LinearCodebook) else 1)
    y = ((y[0] + 1) % 2,) + y[1:]
    for budget in (1.5, True, 2.0, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match="^max_queries must be an int"):
            grand_decode(cb, y, model, max_queries=budget)
    for budget in (0, -2, np.int64(0)):
        with pytest.raises(ValueError, match="^max_queries must be >= 1"):
            grand_decode(cb, y, model, max_queries=budget)
    for budget in (1, 3, 100):
        expected = grand_decode(cb, y, model, max_queries=budget)
        got = grand_decode(cb, y, model, max_queries=np.int64(budget))
        assert got == expected and type(got.queries) is int
