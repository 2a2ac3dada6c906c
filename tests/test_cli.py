import csv
import importlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import grandkit
from grandkit import analysis, cli
from grandkit.codebook import build_uniform_codebook, save_codebook
from grandkit.noise_models import BinaryMarkovNoise, bsc, shannon_entropy_rate

from .oracles import supercritical_threshold_crossing


def run_cli(capsys, *argv):
    cli.main(list(argv))
    return capsys.readouterr().out


def test_guess_order_csv(capsys):
    out = run_cli(
        capsys, "guess-order", "--model", "bsc", "--p", "0.1", "--n", "3",
        "--limit", "4",
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["rank", "sequence", "log_prob"]
    assert [r[1] for r in rows[1:]] == ["000", "001", "010", "100"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4"]


def test_guess_order_limit_zero_prints_header_only(capsys):
    out = run_cli(
        capsys, "guess-order", "--model", "bsc", "--p", "0.1", "--n", "3",
        "--limit", "0",
    )
    assert out == "rank,sequence,log_prob\r\n"


def test_guess_order_rejects_negative_limit(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["guess-order", "--model", "bsc", "--p", "0.1", "--n", "3",
             "--limit", "-3"]
        )
    assert exc.value.code == 2
    assert "--limit" in capsys.readouterr().err


def test_guess_order_markov(capsys):
    out = run_cli(
        capsys, "guess-order", "--model", "markov", "--a", "0.1", "--b", "0.4",
        "--n", "4", "--limit", "3",
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][1] == "0000"


def test_blerr_headline(capsys):
    out = run_cli(capsys, "blerr", "--p", "0.01", "--n", "75", "--rate", "0.72")
    data = json.loads(out)
    assert data["block_error"] == pytest.approx(3.15e-3, rel=0.05)
    assert data["block_error"] + data["success_prob"] == pytest.approx(1.0)
    assert data["queries_per_bit"] > 0


def test_blerr_past_float_reach_of_the_hit_rate(capsys):
    """n (1 - R) = 1080 > 1074: c = 2^(-1080) underflows a float, and a block
    error in [0, 1] still comes out."""
    out = json.loads(run_cli(capsys, "blerr", "--p", "0.1", "--n", "1200", "--rate", "0.1"))
    assert 0.0 <= out["block_error"] <= 1.0


def test_blerr_with_budget_reports_conditional_queries(capsys):
    plain = json.loads(
        run_cli(capsys, "blerr", "--p", "0.01", "--n", "75", "--rate", "0.72")
    )
    capped = json.loads(
        run_cli(
            capsys, "blerr", "--p", "0.01", "--n", "75", "--rate", "0.72",
            "--abandon-after", "64026",
        )
    )
    assert capped["queries_per_bit"] < plain["queries_per_bit"]
    assert capped["block_error"] == plain["block_error"]


def test_make_codebook_and_decode(capsys, tmp_path):
    path = tmp_path / "cb.bin"
    run_cli(
        capsys, "make-codebook", "--kind", "linear", "--n", "7", "--k", "4",
        "--seed", "3", "--out", str(path),
    )
    out = run_cli(
        capsys, "decode", "--model", "bsc", "--p", "0.05", "--codebook",
        str(path), "--y", "0f",
    )
    data = json.loads(out)
    assert data["status"] == "decoded"
    assert len(data["decoded"]) == 7
    assert data["queries"] >= 1


def test_decode_abandonment(capsys, tmp_path):
    path = tmp_path / "cb.bin"
    run_cli(
        capsys, "make-codebook", "--kind", "explicit", "--n", "10", "--rate",
        "0.2", "--seed", "1", "--out", str(path),
    )
    out = run_cli(
        capsys, "decode", "--model", "bsc", "--p", "0.1", "--codebook",
        str(path), "--y", "3ff", "--abandon-after", "1",
    )
    data = json.loads(out)
    assert data["status"] in ("decoded", "abandoned")
    if data["status"] == "abandoned":
        assert data["decoded"] is None
        assert data["queries"] == 1


def test_exponents_csv(capsys, tmp_path):
    out_file = tmp_path / "exp.csv"
    run_cli(
        capsys, "exponents", "--model", "bsc", "--p", "0.1", "--rate-grid",
        "0.1:0.2:0.9", "--delta", "0.2", "--out", str(out_file),
    )
    with open(out_file) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 5
    assert set(rows[0]) == {
        "R", "epsilon", "s", "epsilon_AB", "grand_complexity_exp",
        "grandab_complexity_exp", "x_star", "y_star", "capacity",
    }
    cap = float(rows[0]["capacity"])
    for row in rows:
        r = float(row["R"])
        eps, s = float(row["epsilon"]), float(row["s"])
        assert (eps > 0) == (r < cap)
        assert (s > 0) == (r > cap)


@pytest.mark.parametrize(
    "args",
    [
        ("--model", "bsc", "--p", "0.01", "--auto-delta", "--p-abandon", "0.01",
         "--n", "75"),
        ("--model", "bsc", "--p", "0.1", "--delta", "0.3"),
        ("--model", "markov", "--a", "0.002", "--b", "0.2", "--delta", "0.05"),
    ],
)
def test_exponents_only_y_star_differs_from_crossing_oracle(tmp_path, monkeypatch, args):
    """The Renyi-parameter root changes no cell but y_star, and that one by
    the crossing oracle's own solver error at most."""
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    grid = ("--rate-grid", "0.0123:0.01:0.9923")
    cli.main(["exponents", *args, *grid, "--out", str(new)])
    monkeypatch.setattr(
        analysis, "supercritical_threshold_y_star", supercritical_threshold_crossing
    )
    cli.main(["exponents", *args, *grid, "--out", str(ref)])

    def rows(path):
        with open(path, newline="") as f:
            return list(csv.DictReader(f))

    got, want = rows(new), rows(ref)
    assert len(got) == len(want) == 99
    assert sum(r["y_star"] != "None" for r in want) >= 30
    for g, w in zip(got, want):
        y, y_ref = g.pop("y_star"), w.pop("y_star")
        assert g == w
        if y_ref == "None":
            assert y == "None"
        else:
            assert abs(float(y) - float(y_ref)) <= 1e-11


def _clear_analytics_caches():
    for f in (analysis._abandonment_rate, analysis.critical_rate_x_star, shannon_entropy_rate):
        f.cache_clear()


@pytest.mark.parametrize(
    "model, delta, args",
    [
        (bsc(0.1), 0.3, ("--model", "bsc", "--p", "0.1", "--delta", "0.3")),
        (BinaryMarkovNoise(0.002, 0.2), 0.05,
         ("--model", "markov", "--a", "0.002", "--b", "0.2", "--delta", "0.05")),
    ],
)
def test_exponents_computes_rate_independent_terms_once(tmp_path, monkeypatch, model, delta, args):
    """Over 99 rates, I_N(min(H + delta, 1)) is evaluated once and x* (the
    Legendre point at rho = 1/2) is computed once."""
    _clear_analytics_caches()
    xs, rhos = [], []
    in_rate = [False]  # the I_N root search's own Legendre points are not x*
    orig_rate, orig_point = analysis.rate_function_value, analysis._legendre_point

    def rate_function_value(m, x):
        xs.append(x)
        in_rate[0] = True
        try:
            return orig_rate(m, x)
        finally:
            in_rate[0] = False

    def legendre_point(m, rho):
        if not in_rate[0]:
            rhos.append(rho)
        return orig_point(m, rho)

    monkeypatch.setattr(analysis, "rate_function_value", rate_function_value)
    monkeypatch.setattr(analysis, "_legendre_point", legendre_point)
    out = tmp_path / "e.csv"
    cli.main(["exponents", *args, "--rate-grid", "0.01:0.01:0.99", "--out", str(out)])
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 99
    assert sum(r["epsilon_AB"] != "" for r in rows) >= 40
    assert xs.count(min(shannon_entropy_rate(model) + delta, 1.0)) == 1
    assert rhos.count(0.5) == 1


@pytest.mark.parametrize(
    "args",
    [
        ("--model", "bsc", "--p", "0.01", "--auto-delta", "--p-abandon", "0.01", "--n", "75"),
        ("--model", "bsc", "--p", "0.1", "--delta", "0.3"),
        ("--model", "markov", "--a", "0.002", "--b", "0.2", "--delta", "0.05"),
        ("--model", "iid", "--pmf", "0.6,0.4,0", "--delta", "0.1"),
    ],
)
def test_exponents_csv_same_cold_and_warm(tmp_path, args):
    """The per-model and per-(model, delta) caches change no byte: one CSV
    built with them empty, one with them filled."""
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    grid = ("--rate-grid", "0.0123:0.01:0.9923")
    _clear_analytics_caches()
    cli.main(["exponents", *args, *grid, "--out", str(cold)])
    cli.main(["exponents", *args, *grid, "--out", str(warm)])
    assert cold.read_bytes() == warm.read_bytes()


def test_simulate_deterministic_output(capsys):
    args = (
        "simulate", "--model", "bsc", "--p", "0.1", "--mode", "race", "--n",
        "10", "--rate", "0.5", "--trials", "300", "--seed", "12",
    )
    out1 = run_cli(capsys, *args)
    out2 = run_cli(capsys, *args)
    assert out1 == out2
    data = json.loads(out1)
    assert data["schema_version"] == 1
    assert "wall_time" not in data


def test_simulate_wall_time_on_stderr(capsys):
    cli.main(
        [
            "simulate", "--model", "bsc", "--p", "0.1", "--mode", "race",
            "--n", "8", "--rate", "0.5", "--trials", "50", "--seed", "1",
        ]
    )
    captured = capsys.readouterr()
    assert "wall_time" in captured.err


def test_figure_sweep_deterministic_file(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = (
        "figure-sweep", "--model", "bsc", "--p", "0.1", "--n", "12",
        "--rate-grid", "0.2:0.3:0.8", "--trials", "100", "--seed", "5",
    )
    cli.main([*base, "--out", str(f1)])
    cli.main([*base, "--out", str(f2)])
    assert f1.read_bytes() == f2.read_bytes()


def test_figure_sweep_counts_per_bit_costs_in_alphabet_symbols(tmp_path):
    """Per-bit costs are |A|^(n x) / n: for a ternary alphabet at n = 10 and
    R = 0.2, the codebook costs 3^(nR) / 10 and GRAND 3^(n(1 - R)) / 10."""
    out = tmp_path / "fig.csv"
    cli.main(["figure-sweep", "--model", "iid", "--pmf", "0.7,0.2,0.1", "--n", "10",
              "--rate-grid", "0.2:0.1:0.2", "--out", str(out)])
    with open(out) as f:
        (row,) = csv.DictReader(f)
    assert float(row["codebook_computations_per_bit"]) == pytest.approx(3**2 / 10)
    assert float(row["grand_queries_per_bit"]) == pytest.approx(3**8 / 10)


@pytest.mark.parametrize(
    "model",
    [("--model", "bsc", "--p", "0.1"), ("--model", "markov", "--a", "0.002", "--b", "0.2")],
)
def test_exponents_and_figure_sweep_share_epsilon_columns(tmp_path, model):
    """Both commands take epsilon and epsilon_AB from the same per-rate rule,
    so the two columns agree byte for byte, empty cells included."""
    exp, fig = tmp_path / "exp.csv", tmp_path / "fig.csv"
    grid = ("--rate-grid", "0.05:0.05:0.95", "--delta", "0.05")
    cli.main(["exponents", *model, *grid, "--out", str(exp)])
    cli.main(["figure-sweep", *model, "--n", "100", *grid, "--out", str(fig)])

    def columns(path):
        with open(path) as f:
            return [(r["R"], r["epsilon"], r["epsilon_AB"]) for r in csv.DictReader(f)]

    rows = columns(exp)
    assert rows == columns(fig)
    assert len(rows) == 19
    assert any(ab for _, _, ab in rows)
    if model[1] == "bsc":
        assert any(not ab for _, _, ab in rows)


def _package_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    pkg_root = str(Path(cli.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": pkg_root + (os.pathsep + inherited if inherited else "")}


def test_closed_output_pipe_ends_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "grandkit", "guess-order", "--model", "bsc",
         "--p", "0.1", "--n", "20", "--limit", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_package_env(),
    )
    assert proc.stdout.readline() == b"rank,sequence,log_prob\r\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_package_and_cli_import_no_test_dependencies():
    """scipy, hypothesis and pytest are test dependencies only: an installed package
    lacks them, and scipy alone would cost tens of MB resident and over half a second
    at start-up, for no run-time use."""
    code = (
        "import sys, grandkit, grandkit.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'hypothesis', 'pytest', '_pytest')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=_package_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"


# Every name ``grandkit`` exports, by the module that defines it.
PUBLIC_NAMES = {
    "noise_models": (
        "BinaryMarkovNoise", "IIDNoise", "NoiseModel", "bsc", "min_entropy_rate",
        "renyi_entropy_rate", "sample_noise_with", "shannon_entropy_rate",
    ),
    "guesswork": ("guess_rank",),
    "codebook": (
        "ExplicitCodebook", "LinearCodebook", "UHitModel", "build_linear_codebook",
        "build_uniform_codebook", "load_codebook", "save_codebook",
    ),
    "decoder": ("DecodeResult", "DecodeStatus", "grand_decode"),
    "analysis": (
        "ExponentReport", "abandonment_threshold", "bsc_success_prob_fine", "capacity",
        "complexity_exponents", "critical_rate_x_star", "error_exponent",
        "expected_queries_fine", "exponent_report", "grandab_error_exponent",
        "max_achievable_rate", "rate_function_value", "select_delta", "success_exponent",
        "supercritical_threshold_y_star",
    ),
    "simulator": ("SimConfig", "SimReport", "figure_sweep", "run_simulation"),
}


def test_package_exports_each_public_name_from_its_module():
    """The package's 38 names and ``__version__``, no more and no fewer, and each
    is the object its defining module holds."""
    pinned = {name for names in PUBLIC_NAMES.values() for name in names}
    assert len(pinned) == 38
    for module, names in PUBLIC_NAMES.items():
        owner = importlib.import_module(f"grandkit.{module}")
        for name in names:
            assert getattr(grandkit, name) is getattr(owner, name), name
    assert isinstance(grandkit.__version__, str) and grandkit.__version__
    exported = {name for name in dir(grandkit) if not name.startswith("_")
                and not isinstance(getattr(grandkit, name), types.ModuleType)}
    assert exported == pinned


def test_model_flag_validation():
    with pytest.raises(SystemExit):
        cli.main(["guess-order", "--model", "bsc", "--n", "3", "--limit", "2"])
    with pytest.raises(SystemExit):
        cli.main(
            ["guess-order", "--model", "markov", "--a", "0.1", "--n", "3",
             "--limit", "2"]
        )


BSC = ("--model", "bsc", "--p", "0.01")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("blerr", "--p", "0.01", "--n", "75", "--rate", "1.5"), "R must lie in (0, 1)"),
        (("guess-order", *BSC, "--n", "0", "--limit", "3"), "n must be >= 1"),
        (("guess-order", "--model", "bsc", "--n", "3", "--limit", "3"),
         "--model bsc requires --p"),
        (("guess-order", "--model", "iid", "--pmf", "0.5,x", "--n", "3", "--limit", "3"),
         "could not convert"),
        (("exponents", *BSC, "--rate-grid", "0.1:0.2"), "--rate-grid must be start:step:stop"),
        (("exponents", *BSC, "--rate-grid", "0.9:0.1:0.1"), "step > 0 and start <= stop"),
        (("exponents", *BSC, "--rate-grid", "0.1:0:0.9"), "step > 0 and start <= stop"),
        (("exponents", *BSC, "--rate-grid", "0.1:0.2:0.9", "--p-abandon", "0.01"),
         "--p-abandon requires --auto-delta"),
        (("exponents", *BSC, "--rate-grid", "0.1:0.2:0.9", "--auto-delta", "--n", "75"),
         "--auto-delta requires --p-abandon and --n"),
        (("exponents", *BSC, "--rate-grid", "0.1:0.2:0.9", "--delta", "0.1",
          "--auto-delta", "--p-abandon", "0.01", "--n", "75"),
         "either --delta or --auto-delta"),
        (("figure-sweep", *BSC, "--n", "20", "--rate-grid", "0.1:0.2:0.9",
          "--p-abandon", "0.01", "--out", "unused.csv"),
         "--p-abandon requires --auto-delta"),
        (("simulate", *BSC, "--mode", "race", "--n", "20", "--rate", "0.5",
          "--trials", "10", "--p-abandon", "0.01"),
         "--abandon auto and --p-abandon go together"),
        (("simulate", *BSC, "--mode", "race", "--n", "20", "--rate", "0.5",
          "--trials", "10", "--abandon", "auto"),
         "--abandon auto and --p-abandon go together"),
        (("simulate", "--model", "iid", "--pmf", "0.9,0.05,0.05", "--mode", "race",
          "--n", "20", "--rate", "0.5", "--trials", "10", "--abandon", "auto",
          "--p-abandon", "0.01"),
         "binary alphabets only"),
        (("decode", *BSC, "--codebook", "missing.gkcb", "--y", "0"),
         "No such file or directory"),
        (("make-codebook", "--kind", "explicit", "--n", "100", "--rate", "0.9",
          "--out", "cb.gkcb"),
         "use a linear codebook or race-mode simulation"),
        (("make-codebook", "--kind", "explicit", "--n", "8", "--out", "cb.gkcb"),
         "--kind explicit requires --rate"),
        (("make-codebook", "--kind", "linear", "--n", "8", "--out", "cb.gkcb"),
         "--kind linear requires --k or --rate"),
        (("blerr", "--p", "0.01", "--n", "0", "--rate", "0.5"), "n must be >= 1"),
        (("figure-sweep", *BSC, "--n", "20", "--rate-grid", "0.1:0.2:0.9",
          "--trials", "-5", "--out", "unused.csv"),
         "argument --trials: must be >= 0, got -5"),
        (("exponents", *BSC, "--rate-grid=-0.2:0.1:0.1"), "points must lie in (0, 1)"),
        (("exponents", *BSC, "--rate-grid", "0.9:0.1:1.3"), "points must lie in (0, 1)"),
        (("figure-sweep", *BSC, "--n", "20", "--rate-grid", "0:0.1:0.5",
          "--out", "unused.csv"),
         "points must lie in (0, 1)"),
        (("exponents", "--model", "iid", "--pmf", "1,0", "--n", "75", "--auto-delta",
          "--p-abandon", "0.01", "--rate-grid", "0.5:0.1:0.6"),
         "every noise symbol to have positive probability"),
        (("blerr", "--p", "0.01", "--n", "75", "--rate", "0.5", "--abandon-after=-5"),
         "max_queries must be >= 1"),
        (("exponents", "--model", "bsc", "--p", "nan", "--rate-grid", "0.1:0.2:0.9"),
         "pmf entries must be non-negative numbers"),
        (("exponents", "--model", "iid", "--pmf", "0.5,nan", "--rate-grid", "0.1:0.2:0.9"),
         "pmf entries must be non-negative numbers"),
        (("exponents", *BSC, "--rate-grid", "0.1:0.2:0.9", "--delta", "nan"),
         "delta must be positive and finite"),
        (("exponents", *BSC, "--rate-grid", "0.1:0.2:0.9", "--delta", "inf"),
         "delta must be positive and finite"),
        (("figure-sweep", *BSC, "--n", "20", "--rate-grid", "0.1:0.2:0.9",
          "--delta", "nan", "--out", "unused.csv"),
         "delta must be positive and finite"),
        (("exponents", *BSC, "--rate-grid", "nan:0.1:0.5"), "step > 0 and start <= stop"),
        (("exponents", *BSC, "--rate-grid", "0.1:0.1:nan"), "step > 0 and start <= stop"),
        (("exponents", *BSC, "--rate-grid", "0.1:nan:0.5"), "step > 0 and start <= stop"),
        (("exponents", *BSC, "--rate-grid", "0.1:inf:0.5"), "step > 0 and start <= stop"),
        (("make-codebook", "--kind", "linear", "--n", "8", "--k", "3", "--rate", "0.9",
          "--out", "cb.gkcb"),
         "--kind linear takes --k or --rate, not both"),
        (("make-codebook", "--kind", "explicit", "--n", "8", "--rate", "0.5", "--k", "5",
          "--out", "cb.gkcb"),
         "--kind explicit takes --rate, not --k"),
        (("guess-order", *BSC, "--a", "0.1", "--b", "0.3", "--n", "3", "--limit", "3"),
         "--model bsc does not take --a, --b"),
        (("exponents", *BSC, "--pmf", "0.9,0.1", "--rate-grid", "0.1:0.2:0.9", "--delta", "0.1"),
         "--model bsc does not take --pmf"),
        (("simulate", "--model", "markov", "--a", "0.05", "--b", "0.3", "--p", "0.01", "--mode",
          "race", "--n", "20", "--rate", "0.5", "--trials", "10"),
         "--model markov does not take --p"),
        (("decode", "--model", "iid", "--pmf", "0.9,0.1", "--b", "0.3", "--codebook",
          "missing.gkcb", "--y", "0"),
         "--model iid does not take --b"),
        (("figure-sweep", *BSC, "--a", "0.1", "--n", "20", "--rate-grid", "0.1:0.2:0.9",
          "--delta", "0.1", "--out", "unused.csv"),
         "--model bsc does not take --a"),
        (("exponents", *BSC, "--rate-grid", "0.1:0.2:0.9", "--delta", "0.1", "--n", "75"),
         "exponents --n requires --auto-delta"),
    ],
)
def test_bad_input_is_an_argparse_error(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # argparse names the subcommand when the error is in its own arguments
    assert "grandkit: error:" in err or f"grandkit {argv[0]}: error:" in err
    assert message in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ("exponents", *BSC, "--rate-grid", "0.05:0.1:0.95", "--auto-delta", "--p-abandon",
         "0.01", "--n", "75"),
        ("exponents", "--model", "markov", "--a", "0.05", "--b", "0.3", "--rate-grid",
         "0.1:0.2:0.9"),
        ("simulate", *BSC, "--mode", "race", "--n", "40", "--rate", "0.5", "--trials", "50"),
        ("simulate", *BSC, "--mode", "explicit", "--n", "12", "--rate", "0.5", "--trials", "20",
         "--seed", "3"),
    ],
)
def test_out_file_holds_the_bytes_printed_without_it(capsys, tmp_path, argv):
    printed = run_cli(capsys, *argv)
    path = tmp_path / "out.dat"
    assert run_cli(capsys, *argv, "--out", str(path)) == ""
    assert printed and path.read_bytes() == printed.encode()


def test_decode_rejects_a_non_binary_codebook(capsys, tmp_path):
    # --y is hex bits, which cannot spell a ternary word
    path = tmp_path / "cb3.gkcb"
    save_codebook(build_uniform_codebook(6, 0.5, seed=0, alphabet_size=3), str(path))
    with pytest.raises(SystemExit) as exc:
        cli.main(["decode", "--model", "iid", "--pmf", "0.8,0.1,0.1", "--codebook", str(path),
                  "--y", "3f"])
    assert exc.value.code == 2
    assert "the codebook must be binary" in capsys.readouterr().err


@pytest.mark.parametrize(
    "word, message",
    [
        ("xyz", "invalid literal for int() with base 16"),
        ("80", "does not fit in 7 bits"),
        ("-5", "is negative"),
    ],
)
def test_decode_bad_word_is_an_argparse_error(capsys, tmp_path, word, message):
    path = tmp_path / "cb.bin"
    run_cli(
        capsys, "make-codebook", "--kind", "linear", "--n", "7", "--k", "4",
        "--out", str(path),
    )
    with pytest.raises(SystemExit) as exc:
        cli.main(["decode", *BSC, "--codebook", str(path), "--y", word])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
