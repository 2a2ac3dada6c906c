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
import csv
import itertools
import json
import math
import os
import sys

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
from .noise_models import BinaryMarkovNoise, IIDNoise, bsc, model_error_probability


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--model", required=True, choices=["bsc", "markov", "iid"],
        help="noise law: bsc (--p), markov (--a --b), iid (--pmf)",
    )
    p.add_argument("--p", type=float, help="BSC flip probability")
    p.add_argument("--a", type=float, help="Markov 0->1 transition probability")
    p.add_argument("--b", type=float, help="Markov 1->0 transition probability")
    p.add_argument("--pmf", type=str, help="comma-separated symbol probabilities")


def _build_model(args):
    if args.model == "bsc":
        if args.p is None:
            raise ValueError("--model bsc requires --p")
        return bsc(args.p)
    if args.model == "markov":
        if args.a is None or args.b is None:
            raise ValueError("--model markov requires --a and --b")
        return BinaryMarkovNoise(args.a, args.b)
    if args.pmf is None:
        raise ValueError("--model iid requires --pmf")
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
    return tuple((value >> (n - 1 - i)) & 1 for i in range(n))


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _cmd_guess_order(args) -> None:
    guesses = iter_guesses(_build_model(args), args.n)
    writer = csv.writer(sys.stdout)
    writer.writerow(["rank", "sequence", "log_prob"])
    for rank, (z, lp) in enumerate(itertools.islice(guesses, args.limit), 1):
        writer.writerow([rank, "".join(str(s) for s in z), repr(lp)])


def _cmd_decode(args) -> None:
    model = _build_model(args)
    cb = load_codebook(args.codebook)
    if cb.alphabet_size != 2:
        raise ValueError("decode --y is read as hex bits, so the codebook must be binary")
    y = _parse_word(args.y, cb.n)
    res = grand_decode(cb, y, model, max_queries=args.abandon_after)
    out = {
        "decoded": "".join(str(s) for s in res.decoded)
        if res.decoded is not None
        else None,
        "queries": res.queries,
        "status": res.status.value,
    }
    print(json.dumps(out, sort_keys=True))


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
    target = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(target)
        writer.writerow(columns)
        for rep in reports:
            row = [repr(getattr(rep, col)) for col in columns]
            if rep.epsilon_AB is None:
                row[3] = ""
            writer.writerow(row)
    finally:
        if args.out:
            target.close()


def _cmd_blerr(args) -> None:
    success = analysis.bsc_success_prob_fine(args.n, args.rate, args.p)
    queries = analysis.expected_queries_fine(
        args.n,
        args.rate,
        args.p,
        max_queries=args.abandon_after,
        conditional=args.abandon_after is not None,
    )
    out = {
        "block_error": 1.0 - success,
        "success_prob": success,
        "queries_per_bit": queries,
    }
    print(json.dumps(out, sort_keys=True))


def _cmd_simulate(args) -> None:
    if (args.abandon == "auto") != (args.p_abandon is not None):
        raise ValueError("--abandon auto and --p-abandon go together")
    model = _build_model(args)
    cfg = simulator.SimConfig(
        model=model,
        n=args.n,
        rate=args.rate,
        trials=args.trials,
        mode=args.mode,
        abandon_after=args.abandon_after,
        p_abandon=args.p_abandon,
        seed=args.seed,
        workers=args.workers,
    )
    report = simulator.run_simulation(cfg)
    text = simulator.report_to_json(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    print(f"wall_time: {report.wall_time:.3f}s", file=sys.stderr)


def _cmd_figure_sweep(args) -> None:
    model = _build_model(args)
    delta = _delta(args, model)
    simulator.figure_sweep(
        model,
        args.n,
        _parse_rate_grid(args.rate_grid),
        args.out,
        delta=delta,
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
        workers=args.workers,
    )


def _cmd_make_codebook(args) -> None:
    if args.rate is None and (args.kind == "explicit" or args.k is None):
        needs = "--rate" if args.kind == "explicit" else "--k or --rate"
        raise ValueError(f"--kind {args.kind} requires {needs}")
    if args.kind == "explicit":
        cb = build_uniform_codebook(args.n, args.rate, args.seed)
    else:
        k = args.k if args.k is not None else round(args.n * args.rate)
        cb = build_linear_codebook(args.n, k, args.seed)
    save_codebook(cb, args.out)
    print(
        json.dumps(
            {"kind": args.kind, "n": cb.n, "size": cb.size, "path": args.out},
            sort_keys=True,
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="grandkit",
        description="Noise-guessing decoders: analytics and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("guess-order", help="print the guess order as CSV")
    _add_model_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--limit", type=_non_negative_int, required=True)
    p.set_defaults(func=_cmd_guess_order)

    p = sub.add_parser("decode", help="decode one received word")
    _add_model_args(p)
    p.add_argument("--codebook", required=True)
    p.add_argument("--y", required=True, help="received word as hex")
    p.add_argument("--abandon-after", type=int, default=None)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("exponents", help="rate sweep of asymptotic exponents")
    _add_model_args(p)
    p.add_argument("--rate-grid", required=True, help="start:step:stop")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--auto-delta", action="store_true")
    p.add_argument("--p-abandon", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_exponents)

    p = sub.add_parser("blerr", help="finite-length block error (binary)")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--abandon-after", type=int, default=None)
    p.set_defaults(func=_cmd_blerr)

    p = sub.add_parser("simulate", help="Monte Carlo decoding trials")
    _add_model_args(p)
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
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("figure-sweep", help="per-rate CSV of predictions")
    _add_model_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rate-grid", required=True, help="start:step:stop")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--auto-delta", action="store_true")
    p.add_argument("--p-abandon", type=float, default=None)
    p.add_argument("--trials", type=_non_negative_int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["explicit", "linear", "race"], default="race")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_figure_sweep)

    p = sub.add_parser("make-codebook", help="build and save a codebook file")
    p.add_argument("--kind", choices=["explicit", "linear"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_codebook)

    args = parser.parse_args(argv)
    try:
        args.func(args)
    except BrokenPipeError:
        # quiet exit; stdout goes to devnull so the exit-time flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, ExplicitModeTooLargeError) as exc:
        parser.error(str(exc))
    return 0

