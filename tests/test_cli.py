import csv
import io
import json

import pytest

from grandkit import cli


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


def test_model_flag_validation():
    with pytest.raises(SystemExit):
        cli.main(["guess-order", "--model", "bsc", "--n", "3", "--limit", "2"])
    with pytest.raises(SystemExit):
        cli.main(
            ["guess-order", "--model", "markov", "--a", "0.1", "--n", "3",
             "--limit", "2"]
        )
