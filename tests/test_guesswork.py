import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from grandkit import analysis
from grandkit.analysis import _brentq, _weight_layers, rate_function_value
from grandkit.codebook import build_linear_codebook
from grandkit.decoder import _PREFIX_CAP, _leaders, grand_decode
from grandkit.guesswork import (
    _class_key,
    _class_table,
    _markov_path_count,
    guess_groups,
    guess_rank,
    iter_guesses,
)
from grandkit.noise_models import (
    BinaryMarkovNoise,
    IIDNoise,
    bsc,
    _unpack,
    min_entropy_rate,
    model_error_probability,
    renyi_entropy_rate,
    shannon_entropy_rate,
)

from .oracles import (
    GuessEnumerator,
    guess_rank_walk,
    rate_function_I_N,
    rate_function_reference,
    sample_noise,
    scgf_lambda_N,
    sequence_log_prob,
)

MODELS = [
    bsc(0.1),
    bsc(0.3),
    IIDNoise((0.5, 0.2, 0.3)),
    # tied symbol probabilities: several classes share each log-probability
    IIDNoise((0.4, 0.4, 0.1, 0.1)),
    BinaryMarkovNoise(0.1, 0.3),
    BinaryMarkovNoise(0.2, 0.2),
]

# a zero-probability start state or symbol: classes of log-probability -inf,
# which the guess order puts last
ZERO_PROB_MODELS = [
    BinaryMarkovNoise(0.1, 0.3, initial=(1.0, 0.0)),
    IIDNoise((0.6, 0.4, 0.0)),
    IIDNoise((0.0, 0.5, 0.5)),
]


def brute_force_order(model, n):
    a = model.alphabet_size
    seqs = itertools.product(range(a), repeat=n)
    return sorted(seqs, key=lambda z: (-sequence_log_prob(model, z), z))


def test_first_guess_is_all_zeros():
    z, lp = next(iter_guesses(bsc(0.1), 3))
    assert z == (0, 0, 0)
    assert lp == pytest.approx(3 * math.log2(0.9), abs=1e-12)


def test_weight_one_layer_ascending_numeric():
    emitted = [z for z, _ in itertools.islice(iter_guesses(bsc(0.1), 3), 4)]
    assert emitted == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_uniform_noise_emits_numeric_order():
    emitted = [z for z, _ in iter_guesses(bsc(0.5), 2)]
    assert emitted == [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("model", MODELS)
def test_enumeration_matches_sorted_order(model):
    n = 7 if model.alphabet_size == 2 else 5
    emitted = [z for z, _ in iter_guesses(model, n)]
    assert emitted == brute_force_order(model, n)
    assert len(emitted) == model.alphabet_size**n


@pytest.mark.parametrize("model", MODELS + ZERO_PROB_MODELS)
def test_lazy_iteration_matches_enumerator(model):
    n = 7 if model.alphabet_size == 2 else 5
    lazy = list(iter_guesses(model, n))
    enum = GuessEnumerator(model, n)
    eager = list(enum)
    assert [z for z, _ in lazy] == [z for z, _ in eager]
    # log-probabilities must agree bit for bit (canonical per-class values)
    assert [lp for _, lp in lazy] == [lp for _, lp in eager]
    # oracle self-check: the heap enumerator stops after all |A|^n sequences
    assert enum.next_guess() is None
    assert enum.emitted_count == model.alphabet_size**n


@pytest.mark.parametrize(
    # bsc(0.5): every class ties; bsc(0.6): the weights descend; the chains run to n = 14
    "model, n",
    [pytest.param(model, n, id=f"model{i}-{n}") for i, model in enumerate(
        [bsc(0.1), bsc(0.5), bsc(0.6), BinaryMarkovNoise(0.1, 0.3), ZERO_PROB_MODELS[0]])
     for n in range(1, 15 if isinstance(model, BinaryMarkovNoise) else 13)],
)
def test_packed_pattern_stream_matches_enumerator(model, n):
    stream = [(_unpack(z, n), lp) for lp, zs in guess_groups(model, n) for z in zs]
    assert stream == list(GuessEnumerator(model, n))


@pytest.mark.parametrize(
    "model, n, size, groups",
    [
        (bsc(0.01), 75, 2851, 3),  # weights 0-2; weight 3 would make 70 376
        (BinaryMarkovNoise(0.05, 0.3), 24, 3938, 67),  # a string and its reverse share a group
        (bsc(0.1), 12, 2**12, 13),  # the whole space
        (bsc(0.5), 16, 0, 0),  # one tie group of 2^16
    ],
)
def test_guess_prefix_is_the_head_of_the_guess_order(model, n, size, groups):
    # the decoder's syndrome table spans whole tie groups, as many as fit in the cap, read
    # off guess_groups: each syndrome's first pattern there, its query count and log-prob
    cb = build_linear_codebook(n, n // 2, seed=n)
    table, patterns, skip = _leaders(cb, model)
    assert (patterns, skip) == (size, groups)
    stream = ((z, lp) for lp, zs in guess_groups(model, n) for z in zs)
    head = list(itertools.islice(stream, size + 1))
    first = {}
    for queries, (z, lp) in enumerate(head[:size], 1):
        first.setdefault(cb.bind(_unpack(z, n)).syndrome, (queries, z, lp))
    assert table == first
    following = next(itertools.islice(guess_groups(model, n), skip, None), None)
    if following is None:
        assert size == model.alphabet_size**n
    else:  # a walk past the head resumes at its next pattern, which opens a group too big
        lp, zs = following
        group = list(itertools.islice(zs, _PREFIX_CAP + 1))
        assert (group[0], lp) == head[size] and (size == 0 or lp != head[size - 1][1])
        assert size + len(group) > _PREFIX_CAP


@pytest.mark.parametrize("model", MODELS)
def test_log_probs_non_increasing(model):
    n = 6 if model.alphabet_size == 2 else 4
    lps = [lp for _, lp in iter_guesses(model, n)]
    assert all(x >= y - 1e-12 for x, y in zip(lps, lps[1:]))


# symbol probabilities that are power-of-2 multiples of each other: at n = 4, exactly
# equally likely classes get log-probabilities a few ulps apart, in adjacent tie groups
_SPLIT_TIE = IIDNoise(
    (0.14211682552542493, 0.07105841276271246, 0.7335309521398283, 0.017764603190678116,
     0.03552920638135623)
)


@pytest.mark.parametrize("model", MODELS + [_SPLIT_TIE])
def test_rank_agrees_with_emission_position(model):
    n = 7 if model.alphabet_size == 2 else 4
    for i, (z, _) in enumerate(iter_guesses(model, n)):
        assert guess_rank(model, z) == i + 1


def _exact_prob(model, z) -> Fraction:
    """The probability of ``z`` as a fraction, from the model's float parameters."""
    if isinstance(model, IIDNoise):
        return math.prod(Fraction(model.pmf[s]) for s in z)
    a, b = Fraction(model.a), Fraction(model.b)
    start = (b / (a + b), a / (a + b)) if model.initial is None else model.initial
    step = ((1 - a, a), (b, 1 - b))
    return Fraction(start[z[0]]) * math.prod(step[x][y] for x, y in zip(z, z[1:]))


@pytest.mark.parametrize(
    "model, n",
    [
        (bsc(0.1), 12),
        (IIDNoise((0.5, 0.25, 0.25)), 7),  # symbols 1 and 2 are equally likely
        (IIDNoise((0.6, 0.3, 0.1)), 7),
        (IIDNoise((0.7, 0.1, 0.1, 0.1)), 5),
        (BinaryMarkovNoise(0.05, 0.3), 12),  # stationary: a string ties its reverse
        (BinaryMarkovNoise(0.1, 0.1), 12),
        (BinaryMarkovNoise(0.25, 0.75), 12),  # an IID law in chain form
        (BinaryMarkovNoise(0.1, 0.2, initial=(0.5, 0.5)), 12),
        (BinaryMarkovNoise(0.05, 0.3), 14),
        (BinaryMarkovNoise(0.1, 0.2, initial=(0.5, 0.5)), 14),
    ],
)
def test_exact_ties_break_by_ascending_value(model, n):
    # exact, not float: equally likely sequences share a tie group however their
    # log-probabilities would round, and the order never raises the probability
    prev_p, prev_z = math.inf, None
    for rank, (z, _) in enumerate(iter_guesses(model, n), 1):
        p = _exact_prob(model, z)
        assert p < prev_p or (p == prev_p and z > prev_z)
        assert guess_rank(model, z) == rank
        prev_p, prev_z = p, z


def test_split_exact_ties_never_raise_the_probability():
    # exactly equally likely classes whose factors differ can land in adjacent tie groups
    # (_SPLIT_TIE at n = 4); the order still never raises the exact probability, there or
    # under a fixed batch of pmfs built the same way, (x, 2x, x/2, 4x, rest)
    xs = np.random.default_rng(30).uniform(0.001, 0.13, 40)
    models = [_SPLIT_TIE, *(IIDNoise((x, 2 * x, x / 2, 4 * x, 1 - 7.5 * x)) for x in xs)]
    splits = 0
    for model in models:
        prev_p, prev_lp = math.inf, None
        for z, lp in iter_guesses(model, 4):
            p = _exact_prob(model, z)
            assert p <= prev_p
            splits += p == prev_p and lp != prev_lp
            prev_p, prev_lp = p, lp
    assert splits  # the batch does split exact ties


@pytest.mark.parametrize("model", MODELS)
def test_iter_guesses_rejects_empty_length(model):
    with pytest.raises(ValueError):
        iter_guesses(model, 0)


@pytest.mark.parametrize("model", MODELS)
def test_rank_and_log_prob_reject_symbols_outside_alphabet(model):
    a = model.alphabet_size
    for bad in (-1, a):
        z = (0, bad, 0, 0)
        with pytest.raises(ValueError):
            guess_rank(model, z)
        with pytest.raises(ValueError):
            sequence_log_prob(model, z)


def test_rank_rejects_non_integral_symbols():
    for z in ((0.7, 1, 0), [1.9, 0, 0], np.array([0.0, 0.5, 1.0])):
        with pytest.raises(ValueError, match="integers"):
            guess_rank(bsc(0.1), z)


@pytest.mark.parametrize(
    # what each kind of input gives under bsc(0.1) and Markov(0.05, 0.3), a rank or an error:
    # 1-D uint8 arrays are read as bytes, tuples and lists through bytes(), the rest symbol
    # by symbol, and no symbol wraps into the alphabet
    "z, outcomes",
    [
        pytest.param(np.array([0, 2, 0], np.uint8), "symbol outside alphabet", id="uint8 2"),
        pytest.param(np.array([0, 255, 0], np.uint8), "symbol outside alphabet", id="uint8 255"),
        pytest.param(np.array([0, 256, 1], np.int64), "symbol outside alphabet", id="int64 256"),
        pytest.param([0, 1, -1], "symbol outside alphabet", id="list -1"),
        pytest.param(np.array([[0, 1], [1, 0]], np.uint8), "symbol outside alphabet", id="2-D"),
        pytest.param((1.0, 0.0, 1.0), (6, 8), id="integral floats"),
        pytest.param((True, False), (3, 4), id="bools"),
        pytest.param(b"\0\1", (2, 3), id="bytes"),
        pytest.param("0101", "integers", id="str"),
        pytest.param((), "empty sequence", id="empty tuple"),
        pytest.param(np.array([], np.uint8), "empty sequence", id="empty array"),
        pytest.param(lambda: iter((0, 1, 1)), (5, 5), id="iterator"),
        pytest.param(lambda: iter((0.5, 1)), "integers", id="iterator 0.5"),
        pytest.param(lambda: iter((0, 5)), "symbol outside alphabet", id="iterator 5"),
    ],
)
def test_rank_reads_each_input_kind(z, outcomes):
    models = (bsc(0.1), BinaryMarkovNoise(0.05, 0.3))
    for model, want in zip(models, outcomes if isinstance(outcomes, tuple) else (outcomes,) * 2):
        word = z() if callable(z) else z  # an iterator is made afresh for each model
        if isinstance(want, int):
            assert guess_rank(model, word) == want
        else:
            with pytest.raises(ValueError, match=want):
                guess_rank(model, word)


def test_rank_reads_bytes_as_ints_past_256_symbols():
    # symbol counts past 255 cannot be counted in bytes, so such words are int tuples
    model = IIDNoise((0.5,) + (0.5 / 299,) * 299)
    assert guess_rank(model, b"\7") == guess_rank(model, (7,)) == 8


@pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.6])
def test_binary_rank_equals_multinomial_walk(p):
    model = bsc(p)
    rng = np.random.default_rng(int(p * 100))
    for n in (1, 2, 7, 31, 75, 130, 200):
        for q in (0.0, 0.02, 0.3, 0.7, 1.0):
            bits = rng.random(n) < q
            want = guess_rank_walk(model, bits.tolist())
            for z in (tuple(bits.tolist()), [int(b) for b in bits], bits,
                      bits.astype(np.uint8), bits.astype(np.int64)):
                assert guess_rank(model, z) == want


def test_rank_spot_values():
    assert guess_rank(bsc(0.1), (0, 0, 0, 0)) == 1
    assert guess_rank(bsc(0.1), (0, 1, 0, 0)) == 4


def test_rank_large_block_no_enumeration():
    # all-ones is the last-ranked sequence for p < 1/2
    n = 200
    assert guess_rank(bsc(0.1), (1,) * n) == 2**n


def test_rank_random_spot_against_enumeration():
    model = bsc(0.1)
    n = 12
    rng = np.random.default_rng(3)
    order = {z: i + 1 for i, (z, _) in enumerate(GuessEnumerator(model, n))}
    for _ in range(50):
        z = tuple(int(b) for b in rng.integers(0, 2, size=n))
        assert guess_rank(model, z) == order[z]


@given(
    a=st.floats(min_value=0.05, max_value=0.95),
    b=st.floats(min_value=0.05, max_value=0.95),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_rank_is_emission_position_markov_property(a, b, data):
    model = BinaryMarkovNoise(a, b)
    n = data.draw(st.integers(min_value=2, max_value=7))
    i = data.draw(st.integers(min_value=0, max_value=2**n - 1))
    enum = GuessEnumerator(model, n)
    for pos, (z, _) in enumerate(enum):
        if pos == i:
            assert guess_rank(model, z) == i + 1
            break


def layer_counts(n):
    """l_{-1}, l_0, ..., l_n: strings of Hamming weight <= k, k = -1..n."""
    layers = list(_weight_layers(n, 0.5))
    return [layers[0][1]] + [l_k for _, _, l_k, _ in layers]


def test_layer_counts():
    assert layer_counts(4)[:4] == [0, 1, 5, 11]
    assert layer_counts(20)[-1] == 2**20
    # exact big-integer arithmetic at large n
    assert layer_counts(700)[11] == sum(math.comb(700, j) for j in range(11))


def test_iter_guesses_long_block():
    n = 1000
    first = [z for z, _ in itertools.islice(iter_guesses(bsc(1e-3), n), n + 2)]
    assert first[0] == (0,) * n
    # the weight-one layer, ascending numerically: the last bit moves left
    assert first[1] == (0,) * (n - 1) + (1,)
    assert first[n] == (1,) + (0,) * (n - 1)
    assert first[n + 1] == (0,) * (n - 2) + (1, 1)


def test_decode_long_block_one_bit_error():
    cb = build_linear_codebook(1000, 990, seed=1)
    info = tuple(int(b) for b in np.random.default_rng(4).integers(0, 2, size=990))
    c = cb.encode(info)
    y = list(c)
    y[417] ^= 1
    res = grand_decode(cb, y, bsc(1e-3))
    assert res.decoded == c
    assert res.queries == guess_rank(bsc(1e-3), [int(i == 417) for i in range(1000)])


@pytest.mark.parametrize("n", range(1, 11))
def test_markov_path_count_matches_brute_force(n):
    markov = BinaryMarkovNoise(0.1, 0.3)
    found = Counter(_class_key(markov, bytes(z)) for z in itertools.product((0, 1), repeat=n))
    for start in (0, 1):
        for trans in itertools.product(range(n), repeat=4):
            if sum(trans) == n - 1:
                assert _markov_path_count(start, trans) == found[(start, trans)]


@pytest.mark.parametrize("n", range(1, 13))
def test_markov_class_table_covers_every_string(n):
    markov = BinaryMarkovNoise(0.1, 0.3)
    groups, total, group_of = _class_table(markov, n)
    entries = [member for _, members, _ in groups for member in members]
    found = Counter(_class_key(markov, bytes(z)) for z in itertools.product((0, 1), repeat=n))
    assert dict(entries) == found
    assert group_of == {key: i for i, (_, members, _) in enumerate(groups) for key, _ in members}
    assert len(entries) == len(found)
    assert total == 2**n


@pytest.mark.parametrize(
    "pmf", [(0.5, 0.5), (0.9, 0.1), (0.5, 0.2, 0.3), (0.6, 0.4, 0.0), (0.4, 0.3, 0.2, 0.1)]
)
@pytest.mark.parametrize("n", range(1, 7))
def test_iid_class_table_lists_each_count_vector_once(pmf, n):
    model = IIDNoise(pmf)
    a = model.alphabet_size
    groups, total, group_of = _class_table(model, n)
    entries = [member for _, members, _ in groups for member in members]
    found = Counter(_class_key(model, z) for z in itertools.product(range(a), repeat=n))
    assert dict(entries) == found
    assert group_of == {key: i for i, (_, members, _) in enumerate(groups) for key, _ in members}
    assert len(entries) == len(found)
    assert total == sum(size for _, size in entries) == a**n
    log_probs = [lp for lp, _, _ in groups]
    assert all(x > y for x, y in zip(log_probs, log_probs[1:]))
    sizes = [sum(size for _, size in members) for _, members, _ in groups]
    assert [before for _, _, before in groups] == list(itertools.accumulate(sizes[:-1], initial=0))
    if pmf == (0.5, 0.5):
        assert len(groups) == 1


def test_markov_decode_long_block_does_not_recurse_per_symbol():
    markov = BinaryMarkovNoise(0.01, 0.3)
    cb = build_linear_codebook(400, 390, seed=1)
    info = tuple(int(b) for b in np.random.default_rng(4).integers(0, 2, size=390))
    c = cb.encode(info)
    y = list(c)
    y[117] ^= 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        res = grand_decode(cb, y, markov)
    finally:
        sys.setrecursionlimit(limit)
    assert res.decoded == c
    assert res.queries == guess_rank(markov, [int(i == 117) for i in range(400)])


def test_scgf_zero_at_zero():
    for model in MODELS:
        assert scgf_lambda_N(model, 0.0) == 0.0


def test_scgf_uniform_noise_is_identity():
    assert scgf_lambda_N(bsc(0.5), 2.0) == pytest.approx(2.0)


def test_scgf_at_one_is_average_guesswork_exponent():
    for model in MODELS:
        assert scgf_lambda_N(model, 1.0) == pytest.approx(
            renyi_entropy_rate(model, 0.5), abs=1e-12
        )


def test_scgf_below_minus_one_is_negative_min_entropy():
    m = bsc(0.1)
    assert scgf_lambda_N(m, -1.0) == pytest.approx(-min_entropy_rate(m))
    assert scgf_lambda_N(m, -5.0) == pytest.approx(-min_entropy_rate(m))


def test_scgf_convex_in_alpha():
    grid = np.linspace(-0.9, 6.0, 60)
    for model in (bsc(0.1), BinaryMarkovNoise(0.002, 0.2)):
        vals = np.array([scgf_lambda_N(model, a) for a in grid])
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert (second >= -1e-9).all()


@pytest.mark.parametrize("model", [bsc(0.1), bsc(0.01), BinaryMarkovNoise(0.002, 0.2)])
def test_rate_function_endpoints(model):
    assert rate_function_value(model, 0.0) == pytest.approx(
        min_entropy_rate(model), abs=1e-6
    )
    assert rate_function_value(model, shannon_entropy_rate(model)) == pytest.approx(
        0.0, abs=1e-6
    )


def test_rate_function_table_invariants():
    model = bsc(0.1)
    grid = np.linspace(0.0, 1.0, 101)
    table = rate_function_I_N(model, grid)
    vals = np.array(table.I_values)
    assert np.isfinite(vals).all()
    # convexity via discrete second differences
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    assert (second >= -1e-9).all()
    assert table.H == pytest.approx(shannon_entropy_rate(model))
    assert table.H_min == pytest.approx(min_entropy_rate(model))
    # unique most-likely sequence: the linear segment collapses to the origin
    assert table.gamma == pytest.approx(0.0, abs=1e-3)


def test_rate_function_linear_segment_for_tied_maximum():
    # symmetric pmf over 4 symbols with two tied maxima: the flat segment of
    # the transform extends to log_4(2) = 1/2
    model = IIDNoise((0.4, 0.4, 0.1, 0.1))
    table = rate_function_I_N(model, np.linspace(0.0, 1.0, 11))
    assert table.gamma == pytest.approx(0.5, abs=1e-3)
    # linearity on [0, gamma]: slope between grid points is constant
    xs = np.linspace(0.0, 0.5, 6)
    vals = [rate_function_value(model, x) for x in xs]
    slopes = np.diff(vals) / np.diff(xs)
    assert np.allclose(slopes, slopes[0], atol=1e-6)


def test_rate_function_outside_unit_interval_is_infinite():
    assert rate_function_value(bsc(0.1), 1.5) == math.inf
    assert rate_function_value(bsc(0.1), -0.1) == math.inf


def test_rate_function_matches_dense_alpha_grid_supremum():
    # independent oracle: brute-force the transform on a fine alpha grid
    model = bsc(0.1)
    # the tail must reach very large arguments: near x = 1 the supremum
    # converges only like 1/alpha
    alphas = np.concatenate(
        [np.linspace(-1 + 1e-9, 5, 40000), np.geomspace(5, 1e7, 8000)]
    )
    lam = np.array([scgf_lambda_N(model, a) for a in alphas])
    h_min = min_entropy_rate(model)
    for x in np.linspace(0.0, 1.0, 21):
        brute = max(float(np.max(x * alphas - lam)), h_min - x, 0.0)
        assert rate_function_value(model, x) == pytest.approx(brute, abs=1e-6)


REFERENCE_MODELS = [
    bsc(0.01),
    bsc(0.1),
    bsc(0.3),
    IIDNoise((0.7, 0.2, 0.1)),
    IIDNoise((0.6, 0.4, 0.0)),
    BinaryMarkovNoise(0.05, 0.3),
    BinaryMarkovNoise(0.01, 0.5),
    BinaryMarkovNoise(0.3, 0.3),
]


@pytest.mark.parametrize("pmf, x", [((0.6, 0.4, 0.0), 0.8), ((0.5, 0.5, 0.0), 0.7)])
def test_rate_function_is_infinite_past_the_support_edge(pmf, x):
    # two of three symbols carry the mass: no noise sequence has a guesswork
    # exponent above log_3 2 = 0.631, where I_N jumps to +inf
    model = IIDNoise(pmf)
    edge = math.log(2) / math.log(3)
    assert rate_function_value(model, x) == math.inf
    assert rate_function_value(model, math.nextafter(edge, 1.0)) == math.inf
    # at the edge I_N is -L'(0) - L(0), the mean of -log_3 p_i over the two
    # symbols less log_3 2; I_N's slope is infinite there, so the reference,
    # which solves for the float x, is compared a little inside it
    at_edge = -(math.log(pmf[0]) + math.log(pmf[1])) / (2.0 * math.log(3)) - edge
    assert rate_function_value(model, edge) == pytest.approx(at_edge, abs=1e-12)
    inside = edge - 1e-6
    assert abs(rate_function_value(model, inside) - rate_function_reference(model, inside)) <= 1e-12


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=repr)
def test_rate_function_matches_reference(model):
    # x = 1 included: the right edge, where a supremum over alpha converges
    # only like 1/alpha
    for x in np.linspace(0.0, 1.0, 21):
        ref = rate_function_reference(model, float(x))
        val = rate_function_value(model, float(x))
        if ref == math.inf:
            assert val == math.inf
        else:
            assert abs(val - ref) <= 1e-12


def test_empirical_guesswork_growth_approaches_entropy():
    model = bsc(0.1)
    H = shannon_entropy_rate(model)
    dists = []
    for j, n in enumerate((64, 256, 1024)):
        vals = []
        for t in range(60):
            z = sample_noise(model, n, rng_seed=1000 * j + t)
            vals.append(math.log2(guess_rank(model, z)) / n)
        dists.append(abs(float(np.mean(vals)) - H))
    assert dists[0] >= dists[1] >= dists[2]


# ---------------------------------------------------------------------------
# _brentq: an exact port of scipy.optimize.brentq, so roots and every output
# built on them stay byte-identical with scipy out of the run-time imports.
# ---------------------------------------------------------------------------

SMOOTH_FUNCTIONS = [
    lambda c: (lambda x: x**3 - c),
    lambda c: (lambda x: math.tanh(4.0 * (x - c))),
    lambda c: (lambda x: math.exp(x) - math.exp(c)),
    lambda c: (lambda x: (x - c) * (1.0 + x * x)),
    lambda c: (lambda x: math.log1p(x * x) - math.log1p(c * c)),
    lambda c: (lambda x: math.atan(x - c) + 1e-3 * (x - c) ** 3),
]


@pytest.mark.parametrize("xtol", [1e-15, 1e-14, 1e-10])
def test_brentq_port_matches_scipy_on_random_brackets(xtol):
    rng, checked = np.random.default_rng(int(-math.log10(xtol))), 0
    for _ in range(1000):
        make = SMOOTH_FUNCTIONS[rng.integers(len(SMOOTH_FUNCTIONS))]
        c = float(rng.uniform(0.05, 3.0))
        f = make(c)
        a, b = c - float(rng.uniform(0.01, 3.0)), c + float(rng.uniform(0.01, 3.0))
        if rng.random() < 0.5:
            a, b = b, a
        if (f(a) < 0.0) == (f(b) < 0.0):
            continue
        assert _brentq(f, a, b, xtol=xtol) == brentq(f, a, b, xtol=xtol), (c, a, b)
        checked += 1
    assert checked >= 800


BRENTQ_CALL_SITE_MODELS = [
    bsc(0.01),
    bsc(0.1),
    IIDNoise((0.7, 0.2, 0.1)),
    BinaryMarkovNoise(0.05, 0.3),
    BinaryMarkovNoise(0.002, 0.2),
]


@pytest.mark.parametrize("model", BRENTQ_CALL_SITE_MODELS, ids=repr)
def test_brentq_port_matches_scipy_at_every_call_site(monkeypatch, model):
    """Each call site's own function and bracket: the port's root and
    scipy's must be the same float."""
    roots = []

    def both(f, a, b, xtol):
        ours = _brentq(f, a, b, xtol=xtol)
        assert ours == brentq(f, a, b, xtol=xtol), (a, b, xtol)
        roots.append(ours)
        return ours

    monkeypatch.setattr(analysis, "_brentq", both)
    for x in np.linspace(0.0, 1.0, 41):
        analysis.rate_function_value(model, float(x))
    for R in np.linspace(0.01, 0.99, 25):
        analysis.supercritical_threshold_y_star(model, float(R))
    if model.alphabet_size == 2:
        p = model_error_probability(model)
        for n in (20, 75, 700):
            analysis.select_delta(model, n, 1e-2, p)
        # p_abandon below p_block_target: at p n >= 1 equal targets leave no rate
        analysis.max_achievable_rate(model, 75, p, 1e-2, 1e-3)
    assert len(roots) >= 20


def test_brentq_port_raises_like_scipy():
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, xtol=1e-12)
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: math.nan, 0.0, 1.0, xtol=1e-12)
    f = lambda x: math.tanh(x - 0.3)
    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        _brentq(f, 0.0, 10.0, xtol=1e-15, maxiter=3)
    with pytest.raises(RuntimeError):
        brentq(f, 0.0, 10.0, xtol=1e-15, maxiter=3)
    assert _brentq(f, 0.0, 10.0, xtol=1e-15) == brentq(f, 0.0, 10.0, xtol=1e-15)
