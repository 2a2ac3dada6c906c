"""Timing wrappers for the traced run.

The wrappers are installed at the names the program's callers look up (a
module attribute or a class method) and removed again afterwards, so the
program's sources stay untouched and the untraced run pays nothing.

Each wrapped call is a span. Spans nest through a stack: a span's self time
is its duration minus the time of the wrapped calls made inside it. Per-call
records are not kept; the tracer keeps one running sum of calls, time and
self time per boundary.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

from grandkit import analysis, cli, codebook, decoder, simulator

# Analysis functions reported one by one; the sweep reaches them through the
# CLI, through ``simulator.figure_sweep`` and through direct calls.
ANALYSIS_FNS = (
    "error_exponent",
    "supercritical_threshold_y_star",
    "select_delta",
    "max_achievable_rate",
    "bsc_success_prob_fine",
    "expected_queries_fine",
    "bsc_guesswork_quantile",
)

# (boundary name, owner whose attribute the caller looks up, attribute, is a
# generator). A boundary may sit at several owners; all add to one name.
BOUNDARIES = (
    ("decoder.grand_decode", decoder, "grand_decode", False),
    ("guesswork.iter_guesses", decoder, "iter_guesses", True),
    ("codebook.contains", codebook.LinearCodebook, "contains", False),
    ("codebook.contains", codebook.ExplicitCodebook, "contains", False),
    ("simulator.run_race", simulator, "run_race", False),
    ("noise_models.sample_noise_with", simulator, "sample_noise_with", False),
    ("guesswork.guess_rank", simulator, "guess_rank", False),
    ("codebook.sample_u_exact", simulator, "sample_u_exact", False),
    ("guesswork.rate_function_value", analysis, "rate_function_value", False),
    *((f"analysis.{fn}", analysis, fn, False) for fn in ANALYSIS_FNS),
    *((f"analysis.{fn}", simulator, fn, False) for fn in ANALYSIS_FNS),
    ("cli.main", cli, "main", False),
)

BOUNDARY_NAMES = tuple(dict.fromkeys(name for name, *_ in BOUNDARIES))


class Tracer:
    def __init__(self):
        # boundary -> [calls, time_s, self_s]; zeros for a boundary never called
        self.totals = {name: [0, 0.0, 0.0] for name in BOUNDARY_NAMES}
        self._stack = []  # time covered by wrapped children of each open span

    def _close(self, name: str, dt: float) -> None:
        child = self._stack.pop()
        s = self.totals[name]
        s[0] += 1
        s[1] += dt
        s[2] += dt - child
        if self._stack:
            self._stack[-1] += dt

    def _wrap_call(self, name, fn):
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, perf_counter() - t0)

        return traced

    def _wrap_iter(self, name, fn):
        """Times each ``next`` of the generator; one call per item yielded."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self._stack.pop()
                    return
                self._close(name, perf_counter() - t0)
                yield item

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper whose attribute exists; a boundary the program
        no longer has simply reports zero calls."""
        saved = []
        try:
            for name, owner, attr, is_iter in BOUNDARIES:
                fn = owner.__dict__.get(attr)
                if fn is None:
                    continue
                wrap = self._wrap_iter if is_iter else self._wrap_call
                saved.append((owner, attr, fn))
                setattr(owner, attr, wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
