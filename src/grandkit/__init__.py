"""Noise-guessing decoders (GRAND / GRANDAB) with guesswork analytics.

Decode by guessing the channel noise in decreasing-likelihood order: the
first candidate whose subtraction from the received word lands in the
codebook is a maximum-likelihood decoding. The package provides the decoders,
the guesswork order and its large-deviation analytics, codebook models, and a
Monte Carlo harness that checks the two against each other.
"""

from .noise_models import (
    BinaryMarkovNoise,
    IIDNoise,
    NoiseModel,
    bsc,
    min_entropy_rate,
    renyi_entropy_rate,
    sample_noise_with,
    shannon_entropy_rate,
)
from .guesswork import guess_rank
from .codebook import (
    ExplicitCodebook,
    LinearCodebook,
    UHitModel,
    build_linear_codebook,
    build_uniform_codebook,
    load_codebook,
    save_codebook,
)
from .decoder import DecodeResult, DecodeStatus, grand_decode
from .analysis import (
    ExponentReport,
    abandonment_threshold,
    bsc_success_prob_fine,
    capacity,
    complexity_exponents,
    critical_rate_x_star,
    error_exponent,
    expected_queries_fine,
    exponent_report,
    grandab_error_exponent,
    max_achievable_rate,
    rate_function_value,
    select_delta,
    success_exponent,
    supercritical_threshold_y_star,
)
from .simulator import SimConfig, SimReport, figure_sweep, run_simulation

__version__ = "0.1.0"
