"""Byte-for-byte command-line outputs on fixed inputs.

Each directory under ``tests/golden/`` holds a ``config`` and a ``data.csv``
plus one ``<command>.out`` file per command below, written by
``python tests/test_golden.py``.  The configs list only atoms the data shows.
Every case includes ``predict-samples``, so the files also pin the sampling
streams of ``predictive_sample`` (fv) and ``predict_draw`` (dw) at each
config's seed, not only the smoothing recursion.

``python tests/test_golden.py --diff`` writes nothing: for each file whose
bytes would change it prints the number of changed lines and the largest
relative deviation of the numeric fields in ``FIELDS``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys

import pytest

from mvhmm import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

COMMANDS = {
    "filter": ["filter"],
    "smooth": ["smooth"],
    "predict-pmf": ["predict", "--pmf"],
    "predict-samples": ["predict", "--samples", "5"],
}

CASES = {
    "fv-discrete": ("filter", "smooth", "predict-pmf", "predict-samples"),
    "fv-nonatomic": ("filter", "smooth", "predict-pmf", "predict-samples"),
    "dw-discrete": ("filter", "smooth", "predict-pmf", "predict-samples"),
    "dw-nonatomic": ("filter", "smooth", "predict-pmf", "predict-samples"),
}

AT = "1"

FIELDS = ("log_weight", "weight", "probability", "rate_offset", "count_mean")


def _run(case: str, command: str) -> tuple[int, str]:
    folder = os.path.join(GOLDEN, case)
    cmd, *extra = COMMANDS[command]
    argv = [cmd, "--config", os.path.join(folder, "config"),
            "--data", os.path.join(folder, "data.csv"), "--at", AT, *extra]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


@pytest.mark.parametrize(
    "case,command",
    [(case, command) for case, commands in CASES.items() for command in commands],
)
def test_cli_output_matches_golden(case, command, monkeypatch):
    for key in list(os.environ):
        if key.startswith("MVHMM_"):
            monkeypatch.delenv(key)
    status, text = _run(case, command)
    assert status == 0
    with open(os.path.join(GOLDEN, case, f"{command}.out"), "rb") as fh:
        assert text.encode("utf-8") == fh.read()


def _deviation(old: str, new: str) -> str:
    """Changed lines of ``new`` against ``old`` and the largest relative
    deviation of their FIELDS values; other keys on changed lines are
    named."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    changed = abs(len(old_lines) - len(new_lines))
    worst, others = 0.0, set()
    for a, b in zip(old_lines, new_lines):
        if a == b:
            continue
        changed += 1
        (key, _, x), (new_key, _, y) = a.partition(" "), b.partition(" ")
        if key != new_key or key not in FIELDS:
            others.add(key)
            continue
        x, y = float(x), float(y)
        worst = max(worst, abs(y - x) / abs(x) if x else math.inf)
    text = f"{changed} lines changed, max relative deviation {worst:.3g}"
    if len(old_lines) != len(new_lines):
        text += f", {len(old_lines)} -> {len(new_lines)} lines"
    return text + (f", other keys: {' '.join(sorted(others))}" if others else "")


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--diff"]):
        sys.exit("usage: python tests/test_golden.py [--diff]")
    diff = sys.argv[1:] == ["--diff"]
    for case, commands in CASES.items():
        for command in commands:
            status, text = _run(case, command)
            if status != 0:
                sys.exit(f"{case} {command}: exit {status}")
            path = os.path.join(GOLDEN, case, f"{command}.out")
            if diff:
                with open(path, "rb") as fh:
                    old = fh.read().decode("utf-8")
                if old != text:
                    print(f"{case}/{command}.out: {_deviation(old, text)}")
                continue
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
