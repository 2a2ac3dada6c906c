"""Command-line interface.

Subcommands mirror the library layers: ``guess-order`` and ``decode`` exercise
single blocks, ``exponents`` / ``blerr`` the analytics, ``simulate`` /
``figure-sweep`` the Monte Carlo harness, and ``make-codebook`` produces the
binary files consumed by ``decode --codebook``.

Data outputs (stdout / --out files) are deterministic given the arguments;
wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import os
import sys
from dataclasses import fields

from . import analysis, simulator
from .codebook import (
    ExplicitModeTooLargeError,
    build_linear_codebook,
    build_uniform_codebook,
    load_codebook,
    save_codebook,
)
from .decoder import grand_decode
from .guesswork import iter_guesses
from .noise_models import BinaryMarkovNoise, IIDNoise, _unpack, bsc, model_error_probability


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--model", required=True, choices=["bsc", "markov", "iid"],
        help="noise law: bsc (--p), markov (--a --b), iid (--pmf)",
    )
    p.add_argument("--p", type=float, help="BSC flip probability")
    p.add_argument("--a", type=float, help="Markov 0->1 transition probability")
    p.add_argument("--b", type=float, help="Markov 1->0 transition probability")
    p.add_argument("--pmf", type=str, help="comma-separated symbol probabilities")


# the parameter flags of each --model
_MODEL_FLAGS = {"bsc": ("p",), "markov": ("a", "b"), "iid": ("pmf",)}


def _build_model(args):
    own = _MODEL_FLAGS[args.model]
    if any(getattr(args, f) is None for f in own):
        raise ValueError(f"--model {args.model} requires {' and '.join('--' + f for f in own)}")
    foreign = [f"--{f}" for fs in _MODEL_FLAGS.values() for f in fs
               if f not in own and getattr(args, f) is not None]
    if foreign:
        raise ValueError(f"--model {args.model} does not take {', '.join(foreign)}")
    if args.model == "bsc":
        return bsc(args.p)
    if args.model == "markov":
        return BinaryMarkovNoise(args.a, args.b)
    return IIDNoise(tuple(float(x) for x in args.pmf.split(",")))


def _parse_rate_grid(spec: str):
    try:
        start, step, stop = (float(x) for x in spec.split(":"))
    except ValueError:
        raise ValueError("--rate-grid must be start:step:stop") from None
    if not all(map(math.isfinite, (start, step, stop))) or step <= 0.0 or start > stop:
        raise ValueError("--rate-grid needs step > 0 and start <= stop")
    grid = []
    r = start
    while r <= stop + 1e-12:
        grid.append(round(r, 12))
        r += step
    if not 0.0 < grid[0] <= grid[-1] < 1.0:
        raise ValueError("--rate-grid points must lie in (0, 1)")
    return grid


def _parse_word(text: str, n: int) -> tuple[int, ...]:
    """Hex string -> length-n bit tuple (most significant bit first)."""
    value = int(text, 16)
    if value < 0:
        raise ValueError(f"word {text} is negative")
    if value >= 1 << n:
        raise ValueError(f"word 0x{text} does not fit in {n} bits")
    return _unpack(value, n)


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _output(path):
    """The data sink of ``--out``: the file at ``path``, or stdout when None."""
    return open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)


def _cmd_guess_order(args) -> None:
    guesses = iter_guesses(_build_model(args), args.n)
    writer = csv.writer(sys.stdout)
    writer.writerow(["rank", "sequence", "log_prob"])
    for rank, (z, lp) in enumerate(itertools.islice(guesses, args.limit), 1):
        writer.writerow([rank, "".join(str(s) for s in z), repr(lp)])


def _cmd_decode(args) -> dict:
    model = _build_model(args)
    cb = load_codebook(args.codebook)
    if cb.alphabet_size != 2:
        raise ValueError("decode --y is read as hex bits, so the codebook must be binary")
    y = _parse_word(args.y, cb.n)
    res = grand_decode(cb, y, model, max_queries=args.abandon_after)
    decoded = None if res.decoded is None else "".join(map(str, res.decoded))
    return {"decoded": decoded, "queries": res.queries, "status": res.status.value}


def _add_delta_args(p: argparse.ArgumentParser) -> None:
    """The rate grid and the flags ``_delta`` reads."""
    p.add_argument("--rate-grid", required=True, help="start:step:stop")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--auto-delta", action="store_true")
    p.add_argument("--p-abandon", type=float, default=None)


def _delta(args, model):
    """Abandonment margin: ``--delta``, or the one ``--auto-delta`` selects."""
    if not args.auto_delta:
        if args.p_abandon is not None:
            raise ValueError("--p-abandon requires --auto-delta")
        return args.delta
    if args.delta is not None:
        raise ValueError("give either --delta or --auto-delta, not both")
    if args.p_abandon is None or args.n is None:
        raise ValueError("--auto-delta requires --p-abandon and --n")
    p_err = model_error_probability(model)
    return analysis.select_delta(model, args.n, args.p_abandon, p_err)


def _cmd_exponents(args) -> None:
    if args.n is not None and not args.auto_delta:
        raise ValueError("exponents --n requires --auto-delta")
    model = _build_model(args)
    delta = _delta(args, model)
    reports = [
        analysis.exponent_report(model, R, delta)
        for R in _parse_rate_grid(args.rate_grid)
    ]
    # each column is the ExponentReport field of the same name
    columns = (
        "R", "epsilon", "s", "epsilon_AB", "grand_complexity_exp",
        "grandab_complexity_exp", "x_star", "y_star", "capacity",
    )
    with _output(args.out) as target:
        writer = csv.writer(target)
        writer.writerow(columns)
        for rep in reports:
            row = [repr(getattr(rep, col)) for col in columns]
            if rep.epsilon_AB is None:
                row[3] = ""
            writer.writerow(row)


def _cmd_blerr(args) -> dict:
    success = analysis.bsc_success_prob_fine(args.n, args.rate, args.p)
    queries = analysis.expected_queries_fine(
        args.n, args.rate, args.p, max_queries=args.abandon_after,
        conditional=args.abandon_after is not None,
    )
    return {"block_error": 1.0 - success, "success_prob": success, "queries_per_bit": queries}


def _cmd_simulate(args) -> None:
    if (args.abandon == "auto") != (args.p_abandon is not None):
        raise ValueError("--abandon auto and --p-abandon go together")
    # every SimConfig field but the model is the argument of the same name
    names = [f.name for f in fields(simulator.SimConfig) if f.name != "model"]
    cfg = simulator.SimConfig(_build_model(args), **{k: getattr(args, k) for k in names})
    report = simulator.run_simulation(cfg)
    with _output(args.out) as target:
        target.write(simulator.report_to_json(report) + "\n")
    print(f"wall_time: {report.wall_time:.3f}s", file=sys.stderr)


def _cmd_figure_sweep(args) -> None:
    model = _build_model(args)
    delta = _delta(args, model)
    simulator.figure_sweep(
        model, args.n, _parse_rate_grid(args.rate_grid), args.out, delta=delta,
        trials=args.trials, seed=args.seed, mode=args.mode, workers=args.workers,
    )


def _cmd_make_codebook(args) -> dict:
    explicit = args.kind == "explicit"
    needs = "--rate" if explicit else "--k or --rate"
    if args.rate is None and (explicit or args.k is None):
        raise ValueError(f"--kind {args.kind} requires {needs}")
    if args.k is not None and (explicit or args.rate is not None):
        raise ValueError(f"--kind {args.kind} takes {needs}, not {'--k' if explicit else 'both'}")
    if explicit:
        cb = build_uniform_codebook(args.n, args.rate, args.seed)
    else:
        k = args.k if args.rate is None else round(args.n * args.rate)
        cb = build_linear_codebook(args.n, k, args.seed)
    save_codebook(cb, args.out)
    return {"kind": args.kind, "n": cb.n, "size": cb.size, "path": args.out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="grandkit",
        description="Noise-guessing decoders: analytics and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, model=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if model:
            _add_model_args(p)
        return p

    p = command("guess-order", _cmd_guess_order, "print the guess order as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--limit", type=_non_negative_int, required=True)

    p = command("decode", _cmd_decode, "decode one received word")
    p.add_argument("--codebook", required=True)
    p.add_argument("--y", required=True, help="received word as hex")
    p.add_argument("--abandon-after", type=int, default=None)

    p = command("exponents", _cmd_exponents, "rate sweep of asymptotic exponents")
    _add_delta_args(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out", default=None)

    p = command("blerr", _cmd_blerr, "finite-length block error (binary)", model=False)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--abandon-after", type=int, default=None)

    p = command("simulate", _cmd_simulate, "Monte Carlo decoding trials")
    p.add_argument("--mode", choices=["explicit", "linear", "race"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--abandon", choices=["auto"], default=None)
    p.add_argument("--p-abandon", type=float, default=None)
    p.add_argument("--abandon-after", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)

    p = command("figure-sweep", _cmd_figure_sweep, "per-rate CSV of predictions")
    p.add_argument("--n", type=int, required=True)
    _add_delta_args(p)
    p.add_argument("--trials", type=_non_negative_int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["explicit", "linear", "race"], default="race")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)

    p = command("make-codebook", _cmd_make_codebook, "build and save a codebook file", model=False)
    p.add_argument("--kind", choices=["explicit", "linear"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        out = args.func(args)
        if out is not None:
            print(json.dumps(out, sort_keys=True))
    except BrokenPipeError:
        # quiet exit; stdout goes to devnull so the exit-time flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, ExplicitModeTooLargeError) as exc:
        parser.error(str(exc))
    return 0
