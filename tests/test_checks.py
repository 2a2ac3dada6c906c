"""Every input check the rest of the suite does not reach, one row each.

A row is a call and what it must give: a ValueError whose message holds the
given fragment, or a value. The last rows are entry points that once let a
bad number through, returning NaN or inf or failing inside a solver.
"""

import csv
import math
import os
import re
import tempfile

import pytest

from grandkit.analysis import (
    bsc_guesswork_quantile,
    expected_queries_fine,
    max_achievable_rate,
    rate_function_value,
    select_delta,
)
from grandkit.codebook import (
    LinearCodebook,
    UHitModel,
    build_linear_codebook,
    build_uniform_codebook,
    codebook_size,
    sample_u_exact,
)
from grandkit.decoder import grand_decode
from grandkit.noise_models import BinaryMarkovNoise, IIDNoise, bsc, renyi_entropy_rate
from grandkit.simulator import SimConfig, figure_sweep, run_simulation

TERNARY = IIDNoise((0.8, 0.1, 0.1))
MARKOV = BinaryMarkovNoise(0.1, 0.2)
QUERY_COLUMNS = ("grand_queries_per_bit", "grandab_queries_per_bit",
                 "codebook_computations_per_bit")


def _sweep(n: int, trials: int = 0):
    """figure_sweep's CSV at R = 0.5 for BSC(0.1): its columns and the values of
    its three query columns."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.csv")
        figure_sweep(bsc(0.1), n, [0.5], path, trials=trials)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
    return tuple(rows[0]), {row[c] for row in rows for c in QUERY_COLUMNS}


CHECKS = [
    pytest.param(lambda: grand_decode(build_linear_codebook(7, 4, 0), (0,) * 7, TERNARY),
                 ValueError("model and codebook alphabets disagree"), id="decode-alphabets"),
    pytest.param(lambda: build_uniform_codebook(8, 0.5, 0).encode(16),
                 ValueError("info index out of range"), id="explicit-encode-16-of-16"),
    pytest.param(lambda: LinearCodebook(((1, 0), (0, 1), (1, 1))),
                 ValueError("generator must be k x n with k <= n"), id="linear-3x2"),
    pytest.param(lambda: LinearCodebook(((0, 1, 1), (1, 0, 1))),
                 ValueError("generator must be systematic"), id="linear-not-systematic"),
    pytest.param(lambda: build_linear_codebook(75, 54, 0).rate, 0.72, id="linear-rate"),
    pytest.param(lambda: build_linear_codebook(4, 5, 0),
                 ValueError("need 1 <= k <= n"), id="build-linear-k-over-n"),
    pytest.param(lambda: sample_u_exact(UHitModel(n=8, rate=0.5), 1.0),
                 ValueError("v must lie in (0, 1)"), id="sample-u-v=1"),
    pytest.param(lambda: IIDNoise((1.0,)),
                 ValueError("alphabet_size must be >= 2, got 1"), id="iid-one-symbol"),
    pytest.param(lambda: BinaryMarkovNoise(0.1, 0.2, (0.3, 0.3)),
                 ValueError("initial distribution must sum to 1"), id="markov-initial-sum"),
    pytest.param(lambda: renyi_entropy_rate(bsc(0.1), 0.0),
                 ValueError("alpha must be positive and finite"), id="renyi-alpha=0"),
    pytest.param(lambda: bsc_guesswork_quantile(10, 0.1, 1.0),
                 ValueError("prob must lie in (0, 1)"), id="quantile-prob=1"),
    pytest.param(lambda: expected_queries_fine(10, 0.5, 0.1, conditional=True),
                 ValueError("conditional mean requires a query budget"), id="queries-conditional"),
    pytest.param(lambda: run_simulation(SimConfig(TERNARY, n=8, rate=0.5, trials=1,
                                                  mode="linear")),
                 ValueError("linear mode is binary-only"), id="simulate-linear-ternary"),
    pytest.param(lambda: SimConfig(TERNARY, n=8, rate=0.5, trials=1, mode="linear"),
                 ValueError("linear mode is binary-only"), id="simconfig-linear-ternary"),
    pytest.param(lambda: _sweep(5000)[1], {"inf"}, id="sweep-per-bit-overflow"),
    # entry points that once let a bad number through
    pytest.param(lambda: renyi_entropy_rate(bsc(0.1), math.nan),
                 ValueError("alpha must be positive and finite"), id="renyi-alpha=nan"),
    pytest.param(lambda: renyi_entropy_rate(bsc(0.1), math.inf),
                 ValueError("alpha must be positive and finite"), id="renyi-alpha=inf"),
    pytest.param(lambda: renyi_entropy_rate(MARKOV, math.nan),
                 ValueError("alpha must be positive and finite"), id="renyi-markov-alpha=nan"),
    pytest.param(lambda: renyi_entropy_rate(MARKOV, math.inf),
                 ValueError("alpha must be positive and finite"), id="renyi-markov-alpha=inf"),
    pytest.param(lambda: rate_function_value(bsc(0.1), math.nan),
                 ValueError("x must be a number, not NaN"), id="rate-function-x=nan"),
    pytest.param(lambda: rate_function_value(bsc(0.1), 1.5), math.inf,
                 id="rate-function-x=1.5"),
    pytest.param(lambda: codebook_size(2, 2.5, 0.5), ValueError("n must be an int"),
                 id="size-n=2.5"),
    pytest.param(lambda: codebook_size(2, -3, 0.5), ValueError("n must be >= 1"), id="size-n=-3"),
    pytest.param(lambda: codebook_size(2, True, 1.0), ValueError("n must be an int"),
                 id="size-n=True"),
    pytest.param(lambda: max_achievable_rate(bsc(0.01), 75, 0.01, 0.0, 0.01),
                 ValueError("p_block_target must lie in (0, 1)"), id="max-rate-target=0"),
    pytest.param(lambda: max_achievable_rate(bsc(0.01), 75, 0.01, 2.0, 0.01),
                 ValueError("p_block_target must lie in (0, 1)"), id="max-rate-target=2"),
    pytest.param(lambda: max_achievable_rate(bsc(0.01), 75, 0.01, math.nan, 0.01),
                 ValueError("p_block_target must lie in (0, 1)"), id="max-rate-target=nan"),
    pytest.param(lambda: _sweep(10, trials=-1), ValueError("trials must be >= 0"),
                 id="sweep-trials=-1"),
    pytest.param(lambda: _sweep(10, trials=1.5), ValueError("trials must be an int"),
                 id="sweep-trials=1.5"),
    pytest.param(lambda: "mc_block_error" in _sweep(10, trials=0)[0], False,
                 id="sweep-trials=0"),
    # select_delta's target t: p_abandon * min(p n, 1) underflows to 0 here, and t
    # lies below the float error of I_N(H) = 0 in the next three, so no root has x > H
    pytest.param(lambda: select_delta(bsc(0.5 - 1e-9), 1, 1e-300, 1e-300),
                 ValueError("target exponent 1993 exceeds the rate function's range"),
                 id="select-delta-target-underflows"),
    pytest.param(lambda: select_delta(bsc(0.3), 75, 1 - 1e-15, 1.0),
                 ValueError("abandonment target gives a non-positive margin"),
                 id="select-delta-t-below-float-error"),
    pytest.param(lambda: select_delta(BinaryMarkovNoise(0.8693739787270164, 0.9521247473822373),
                                      75, 1 - 1e-15, 1.0),
                 ValueError("abandonment target gives a non-positive margin"),
                 id="select-delta-markov-t-below-float-error"),
    pytest.param(lambda: select_delta(BinaryMarkovNoise(0.869, 0.952), 75, 1 - 1e-15, 1.0),
                 ValueError("abandonment target gives a non-positive margin"),
                 id="select-delta-markov-root-at-h"),
    # T = 1 abandons with probability 1 - 3e-151, and a decode that ends makes one query
    pytest.param(lambda: expected_queries_fine(1000, 0.5, 0.3, max_queries=1, conditional=True),
                 0.001, id="queries-abandonment-certain"),
]


@pytest.mark.parametrize("call, expected", CHECKS)
def test_each_check_gives_its_answer(call, expected):
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError, match=re.escape(str(expected))):
            call()
    else:
        assert call() == expected
