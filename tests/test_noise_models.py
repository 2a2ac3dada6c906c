import itertools
import math
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grandkit.noise_models import (
    BinaryMarkovNoise,
    IIDNoise,
    _renyi_log_sum,
    bsc,
    min_entropy_rate,
    model_error_probability,
    renyi_entropy_rate,
    sample_noise_with,
    shannon_entropy_rate,
)

from grandkit import analysis
from grandkit.analysis import abandonment_threshold
from grandkit.codebook import (
    ExplicitCodebook,
    UHitModel,
    build_linear_codebook,
    build_uniform_codebook,
)
from grandkit.guesswork import _class_table, guess_groups, guess_rank
from grandkit.simulator import figure_sweep

from .oracles import (
    _log_terms,
    entropy_rate_reference,
    renyi_log_sum_direct,
    sample_noise,
    sample_noise_choice,
    sequence_log_prob,
)
from .test_guesswork import REFERENCE_MODELS


@pytest.mark.parametrize(
    "make", [lambda: bsc(0.1), lambda: IIDNoise((0.8, 0.15, 0.05)),
             lambda: BinaryMarkovNoise(0.05, 0.3),
             lambda: BinaryMarkovNoise(0.1, 0.2, initial=(0.5, 0.5))],
)
def test_a_rebuilt_or_pickled_model_hashes_alike_and_hits_the_class_table(make):
    """The hash is computed once per model. A model built again, and one pickled and
    unpickled as a worker process receives it, compare and hash equal and find the
    original's class table."""
    model = make()
    table = _class_table(model, 11)
    for twin in (make(), pickle.loads(pickle.dumps(model))):
        assert twin == model and repr(twin) == repr(model) and hash(twin) == hash(model)
        assert _class_table(twin, 11) is table


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


def test_renyi_rate_is_never_negative():
    # a Renyi entropy is >= 0, but a near-deterministic chain's L(1/2) can
    # round below zero: to -6.2e-64 for this law
    assert renyi_entropy_rate(BinaryMarkovNoise(0.387, 4.3e-64), 0.5) == 0.0
    rng = np.random.default_rng(16)
    for a, b in zip(rng.uniform(0, 1, 300), 10.0 ** rng.uniform(-120, -10, 300)):
        for model in (BinaryMarkovNoise(a, b), BinaryMarkovNoise(b, a), bsc(b)):
            for alpha in (0.25, 0.5, 2.0, 16.0):
                assert renyi_entropy_rate(model, alpha) >= 0.0, (model, alpha)


@pytest.mark.parametrize(
    "model",
    [bsc(0.1), bsc(0.01), IIDNoise((0.2, 0.5, 0.3)), BinaryMarkovNoise(0.05, 0.4)],
)
def test_shannon_between_min_entropy_and_one(model):
    h = shannon_entropy_rate(model)
    assert min_entropy_rate(model) - 1e-12 <= h <= 1.0 + 1e-12


def test_entropy_rates_match_reference():
    # H, H_alpha and H_min are all read off one Renyi log-sum L(rho); the
    # reference takes each from its own closed form at 40 digits
    for model in [*REFERENCE_MODELS, bsc(1e-4), BinaryMarkovNoise(0.002, 0.2)]:
        assert abs(shannon_entropy_rate(model) - entropy_rate_reference(model, 1.0)) <= 1e-15
        for alpha in (1e-3, 0.25, 0.5, 2.0, 3.0, 50.0, 1e4):
            ref = entropy_rate_reference(model, alpha)
            assert abs(renyi_entropy_rate(model, alpha) - ref) <= 1e-15, (model, alpha)
        assert abs(min_entropy_rate(model) - entropy_rate_reference(model, None)) <= 1e-15


def test_list_pmf_is_held_as_a_tuple():
    m = IIDNoise([0.9, 0.1])
    assert m == bsc(0.1)
    assert shannon_entropy_rate(m) == shannon_entropy_rate(bsc(0.1))


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


@pytest.mark.parametrize("model", [bsc(0.1), BinaryMarkovNoise(0.1, 0.1)])
def test_sampling_rejects_empty_length(model):
    with pytest.raises(ValueError, match="n must be >= 1"):
        sample_noise_with(model, 0, np.random.default_rng(0))


@pytest.mark.parametrize(
    "model",
    [bsc(0.01), bsc(0.5), IIDNoise((0.7, 0.2, 0.1)), IIDNoise((0.6, 0.0, 0.4)),
     BinaryMarkovNoise(0.05, 0.3), BinaryMarkovNoise(0.1, 0.2, initial=(0.0, 1.0)),
     BinaryMarkovNoise(0.3, 0.4, initial=(0.9, 0.1))],
    ids=repr,
)
def test_sampler_draws_what_choice_and_the_symbol_loop_drew(model):
    """Old reports reproduce: the same symbols, dtype and generator state after,
    which also catches a numpy whose ``choice`` stops drawing this way."""
    for seed in range(8):
        rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in (1, 2, 75, 1, 75):
            z, expected = sample_noise_with(model, n, rng), sample_noise_choice(model, n, old)
            assert z.dtype == expected.dtype and np.array_equal(z, expected)
            assert rng.bit_generator.state == old.bit_generator.state


def test_sampler_keeps_symbols_past_255():
    rng = np.random.default_rng(0)
    z = sample_noise_with(IIDNoise((0.0,) * 299 + (1.0,)), 3, rng)
    assert z.dtype == np.uint16 and z.tolist() == [299] * 3
    z = sample_noise_with(IIDNoise((0.5,) + (0.0,) * 298 + (0.5,)), 3, rng)
    assert set(z.tolist()) <= {0, 299}
    assert sample_noise_with(IIDNoise((0.0,) * 255 + (1.0,)), 2, rng).dtype == np.uint8


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


def test_model_validation_rejects_nan():
    nan = math.nan
    with pytest.raises(ValueError, match="pmf entries must be non-negative"):
        bsc(nan)
    with pytest.raises(ValueError, match="pmf entries must be non-negative"):
        IIDNoise((0.5, 0.5, nan))
    with pytest.raises(ValueError, match="pmf must sum to 1"):
        IIDNoise((math.inf, 0.0))
    with pytest.raises(ValueError, match="transition probabilities"):
        BinaryMarkovNoise(nan, 0.2)
    with pytest.raises(ValueError, match="probability pair"):
        BinaryMarkovNoise(0.1, 0.2, initial=(nan, 0.5))
    with pytest.raises(ValueError, match="probability pair"):
        BinaryMarkovNoise(0.1, 0.2, initial=(0.5, nan))


def test_list_initial_is_stored_as_a_tuple():
    """A list start law is stored as a tuple, so the model hashes for the
    caches keyed on it."""
    listed = BinaryMarkovNoise(0.1, 0.3, initial=[0.5, 0.5])
    paired = BinaryMarkovNoise(0.1, 0.3, initial=(0.5, 0.5))
    assert listed == paired and hash(listed) == hash(paired)
    assert shannon_entropy_rate(listed) == shannon_entropy_rate(paired)
    assert guess_rank(listed, (0, 1, 1, 0)) == guess_rank(paired, (0, 1, 1, 0))


@pytest.mark.parametrize(
    "model",
    [
        bsc(0.01),
        IIDNoise((0.6, 0.4, 0.0)),
        IIDNoise((0.7, 0.2, 0.1)),
        BinaryMarkovNoise(0.05, 0.3),
        BinaryMarkovNoise(0.002, 0.2),
    ],
    ids=repr,
)
def test_renyi_log_sum_equals_direct_formula(model):
    """The per-model log terms give the very floats of the formula that
    takes them on every call."""
    for rho in (0.0, 1e-3, 0.5, 1.0, 2.0, 37.0, 1e6):
        assert _renyi_log_sum(model, rho) == renyi_log_sum_direct(model, rho)
    assert model._edge == renyi_log_sum_direct(model, 0.0)
    logs, log_a = _log_terms(model)
    assert min_entropy_rate(model) == -max(logs) / log_a


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


# (entry point, the count it takes, a good value): every count passes one rule
COUNTED = {
    "expected_queries_fine": (
        lambda v: analysis.expected_queries_fine(75, 0.72, 0.01, max_queries=v), "max_queries", 9),
    "abandonment_threshold": (lambda v: abandonment_threshold(v, 0.08, 0.1), "n", 75),
    "select_delta": (lambda v: analysis.select_delta(bsc(0.01), v, 0.01, 0.01), "n", 75),
    "UHitModel": (lambda v: UHitModel(n=v, rate=0.5), "n", 8),
    "guess_groups": (lambda v: guess_groups(bsc(0.01), v), "n", 8),
    "bsc_guesswork_quantile": (lambda v: analysis.bsc_guesswork_quantile(v, 0.01, 0.5), "n", 8),
    "bsc_success_prob_fine": (lambda v: analysis.bsc_success_prob_fine(v, 0.5, 0.01), "n", 8),
    "figure_sweep": (lambda v: figure_sweep(bsc(0.1), v, [0.5], os.devnull), "n", 8),
    "sample_noise_with": (
        lambda v: sample_noise_with(BinaryMarkovNoise(0.1, 0.3), v, np.random.default_rng(1)),
        "n", 8),
    "build_uniform_codebook": (lambda v: build_uniform_codebook(v, 0.5, 1), "n", 8),
    "build_linear_codebook n": (lambda v: build_linear_codebook(v, 1, 1), "n", 8),
    "build_linear_codebook k": (lambda v: build_linear_codebook(75, v, 1), "k", 54),
    "ExplicitCodebook": (
        lambda v: ExplicitCodebook(n=v, rate=0.0, seed=0, alphabet_size=2, words=[(0,) * 8]),
        "n", 8),
}


@pytest.mark.parametrize("entry", COUNTED)
def test_every_count_is_an_int_of_at_least_one(entry):
    call, name, good = COUNTED[entry]
    for value in (2.5, True, 3.0, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match=f"^{name} must be an int"):
            call(value)
    for value in (0, -1, np.int64(0)):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            call(value)
    call(good)
    call(np.int64(good))
