import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grandkit.guesswork import (
    cumulative_binomial_layers,
    guess_rank,
    iter_guesses,
    rate_function_I_N,
    rate_function_value,
    scgf_lambda_N,
)
from grandkit.noise_models import (
    BinaryMarkovNoise,
    IIDNoise,
    bsc,
    min_entropy_rate,
    renyi_entropy_rate,
    sample_noise,
    sequence_log_prob,
    shannon_entropy_rate,
)

from .oracles import GuessEnumerator

MODELS = [
    bsc(0.1),
    bsc(0.3),
    IIDNoise((0.5, 0.2, 0.3)),
    BinaryMarkovNoise(0.1, 0.3),
    BinaryMarkovNoise(0.2, 0.2),
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


@pytest.mark.parametrize("model", MODELS)
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


@pytest.mark.parametrize("model", MODELS)
def test_log_probs_non_increasing(model):
    n = 6 if model.alphabet_size == 2 else 4
    lps = [lp for _, lp in iter_guesses(model, n)]
    assert all(x >= y - 1e-12 for x, y in zip(lps, lps[1:]))


@pytest.mark.parametrize("model", MODELS)
def test_rank_agrees_with_emission_position(model):
    n = 7 if model.alphabet_size == 2 else 4
    for i, (z, _) in enumerate(iter_guesses(model, n)):
        assert guess_rank(model, z) == i + 1


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


def test_layer_counts():
    assert cumulative_binomial_layers(4, -1) == 0
    assert cumulative_binomial_layers(4, 0) == 1
    assert cumulative_binomial_layers(4, 1) == 5
    assert cumulative_binomial_layers(4, 2) == 11
    assert cumulative_binomial_layers(20, 20) == 2**20
    # exact big-integer arithmetic at large n
    assert cumulative_binomial_layers(700, 10) == sum(
        math.comb(700, j) for j in range(11)
    )


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
