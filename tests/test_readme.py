"""The examples in README.md run as written.

Every ``grandkit`` line of the shell blocks runs through ``python -m grandkit``
on the package under test, in order and in one scratch directory (the decode
example reads the codebook the line before it writes). Every Python block runs
with ``exec``. Install and test commands are not ``grandkit`` lines and are
left alone.
"""

import re
import shlex
from pathlib import Path

from .test_acceptance import _run_cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    text = README.read_text()
    return [body for kind, body in re.findall(r"```(\w+)\n(.*?)```", text, re.S)
            if kind == lang]


def _cli_examples() -> list[list[str]]:
    examples = []
    for body in _blocks("sh"):
        for line in body.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["grandkit"]:
                examples.append(words[1:])
    return examples


def test_readme_cli_examples_run(tmp_path):
    examples = _cli_examples()
    commands = [args[0] for args in examples]
    assert commands == [
        "guess-order", "blerr", "exponents", "make-codebook", "decode",
        "simulate", "figure-sweep",
    ]
    out = {args[0]: _run_cli(*args, cwd=tmp_path).decode() for args in examples}
    for name in ("exps.csv", "code.gkcb", "report.json", "sweep.csv"):
        assert (tmp_path / name).stat().st_size > 0
    # the decode example's word is a codeword two flips away, as the comment says
    assert '"queries": 2437' in out["decode"]
    assert '"status": "decoded"' in out["decode"]


def test_readme_python_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = _blocks("python")
    assert blocks
    for body in blocks:
        exec(compile(body, str(README), "exec"), {"__name__": "readme"})
