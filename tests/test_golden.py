"""Byte-for-byte command-line outputs on fixed inputs.

Each directory under ``tests/golden/`` holds a ``config`` and a ``data.csv``
plus one ``<command>.out`` file per command below, written by
``python tests/test_golden.py``.  The configs list only atoms the data shows.
Every case includes ``predict-samples``, so the files also pin the sampling
streams of ``predictive_sample`` (fv) and ``predict_draw`` (dw) at each
config's seed, not only the smoothing recursion.
"""

from __future__ import annotations

import contextlib
import io
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


if __name__ == "__main__":
    for case, commands in CASES.items():
        for command in commands:
            status, text = _run(case, command)
            if status != 0:
                sys.exit(f"{case} {command}: exit {status}")
            with open(os.path.join(GOLDEN, case, f"{command}.out"), "wb") as fh:
                fh.write(text.encode("utf-8"))
