import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grandkit.noise_models import (
    BinaryMarkovNoise,
    IIDNoise,
    bsc,
    min_entropy_rate,
    model_error_probability,
    renyi_entropy_rate,
    sample_noise,
    sequence_log_prob,
    shannon_entropy_rate,
)


def test_uniform_iid_entropy_is_one():
    assert shannon_entropy_rate(bsc(0.5)) == pytest.approx(1.0)


def test_symmetric_markov_entropy_is_one():
    assert shannon_entropy_rate(BinaryMarkovNoise(0.5, 0.5)) == pytest.approx(1.0)


def test_bsc_entropy_spot_value():
    # h(0.01) evaluated with 50-digit arithmetic
    assert shannon_entropy_rate(bsc(0.01)) == pytest.approx(
        0.0807931358959111, abs=1e-12
    )


def test_renyi_uniform():
    assert renyi_entropy_rate(bsc(0.5), 2.0) == pytest.approx(1.0)


def test_renyi_half_spot_value():
    # 2 * log2(sqrt(0.01) + sqrt(0.99))
    expected = 2.0 * math.log2(math.sqrt(0.01) + math.sqrt(0.99))
    assert renyi_entropy_rate(bsc(0.01), 0.5) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.2618286, abs=1e-6)


def test_renyi_rejects_alpha_one():
    with pytest.raises(ValueError):
        renyi_entropy_rate(bsc(0.1), 1.0)


def test_markov_equal_rows_matches_iid():
    q = 0.23
    m = BinaryMarkovNoise(q, 1.0 - q)  # rows (1-q, q) both
    iid = bsc(q)
    for alpha in (0.25, 0.5, 2.0, 4.0, 16.0):
        assert renyi_entropy_rate(m, alpha) == pytest.approx(
            renyi_entropy_rate(iid, alpha), abs=1e-10
        )
    assert shannon_entropy_rate(m) == pytest.approx(
        shannon_entropy_rate(iid), abs=1e-10
    )
    assert min_entropy_rate(m) == pytest.approx(min_entropy_rate(iid), abs=1e-10)


def test_min_entropy_values():
    assert min_entropy_rate(bsc(0.5)) == pytest.approx(1.0)
    assert min_entropy_rate(bsc(0.1)) == pytest.approx(-math.log2(0.9), abs=1e-12)
    assert min_entropy_rate(BinaryMarkovNoise(0.1, 0.9)) == pytest.approx(
        -math.log2(0.9), abs=1e-10
    )


@pytest.mark.parametrize(
    "model",
    [bsc(0.1), IIDNoise((0.2, 0.5, 0.3)), BinaryMarkovNoise(0.05, 0.4)],
)
def test_renyi_non_increasing_in_alpha(model):
    grid = (0.25, 0.5, 2.0, 4.0, 16.0)
    vals = [renyi_entropy_rate(model, a) for a in grid]
    assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "model",
    [bsc(0.1), bsc(0.01), IIDNoise((0.2, 0.5, 0.3)), BinaryMarkovNoise(0.05, 0.4)],
)
def test_shannon_between_min_entropy_and_one(model):
    h = shannon_entropy_rate(model)
    assert min_entropy_rate(model) - 1e-12 <= h <= 1.0 + 1e-12


def test_sequence_log_prob_uniform():
    assert sequence_log_prob(bsc(0.5), (0, 1, 1, 0)) == pytest.approx(-4.0)


def test_sequence_log_prob_iid_spot():
    assert sequence_log_prob(bsc(0.1), (0, 0, 0, 0)) == pytest.approx(
        4.0 * math.log2(0.9), abs=1e-12
    )


def test_sequence_log_prob_markov_spot():
    m = BinaryMarkovNoise(0.2, 0.2)
    assert sequence_log_prob(m, (0, 0)) == pytest.approx(
        math.log2(0.5 * 0.8), abs=1e-12
    )


def test_model_error_probability():
    assert model_error_probability(bsc(0.1)) == pytest.approx(0.1, abs=1e-15)
    assert model_error_probability(IIDNoise((0.7, 0.2, 0.1))) == pytest.approx(0.3)
    # stationary share of 1 symbols: a / (a + b)
    assert model_error_probability(BinaryMarkovNoise(0.1, 0.3)) == pytest.approx(0.25)


def test_sequence_log_prob_rejects_empty():
    with pytest.raises(ValueError):
        sequence_log_prob(bsc(0.1), ())


@pytest.mark.parametrize(
    "model, n",
    [
        (bsc(0.3), 10),
        (IIDNoise((0.2, 0.5, 0.3)), 6),
        (BinaryMarkovNoise(0.05, 0.4), 10),
    ],
)
def test_sequence_probabilities_normalize(model, n):
    a = model.alphabet_size
    total = 0.0
    for z in itertools.product(range(a), repeat=n):
        total += a ** sequence_log_prob(model, z)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_sampling_deterministic_given_seed():
    m = BinaryMarkovNoise(0.1, 0.3)
    z1 = sample_noise(m, 100, rng_seed=7)
    z2 = sample_noise(m, 100, rng_seed=7)
    assert np.array_equal(z1, z2)


def test_degenerate_noise_samples_all_zero():
    z = sample_noise(IIDNoise((1.0, 0.0)), 50, rng_seed=0)
    assert not z.any()


def test_empirical_frequency_matches_model():
    n = 10**6
    p = 0.01
    z = sample_noise(bsc(p), n, rng_seed=123)
    ones = int(z.sum())
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(ones - n * p) < 5 * sigma


def test_markov_stationary_distribution():
    m = BinaryMarkovNoise(0.2, 0.3)
    pi0, pi1 = m.stationary
    assert pi0 == pytest.approx(0.3 / 0.5)
    assert pi1 == pytest.approx(0.2 / 0.5)
    # stationarity: pi P = pi
    assert pi0 * (1 - m.a) + pi1 * m.b == pytest.approx(pi0)


def test_model_validation():
    with pytest.raises(ValueError):
        IIDNoise((0.5, 0.6))
    with pytest.raises(ValueError):
        IIDNoise((1.1, -0.1))
    with pytest.raises(ValueError):
        BinaryMarkovNoise(0.0, 0.5)
    with pytest.raises(ValueError):
        BinaryMarkovNoise(0.5, 1.0)


@given(
    p=st.floats(min_value=0.01, max_value=0.99),
    n=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=30, deadline=None)
def test_normalization_property_binary(p, n):
    model = bsc(p)
    total = 0.0
    for z in itertools.product((0, 1), repeat=n):
        total += 2.0 ** sequence_log_prob(model, z)
    assert total == pytest.approx(1.0, abs=1e-9)
