"""Output checks: every law, count pmf and draw the benchmark obtains.

A law is a mapping from a component index (comma-joined counts) to its
linear weight.  It must be finite and sum to one within ``NORM_TOL``; at the
default seed it must also lie within ``TV_TOL`` in total variation of the
committed reference law.
"""

from __future__ import annotations

import json
import math
import os
import zipfile

NORM_TOL = 1e-10
TV_TOL = 1e-9
PMF_TOL = 1e-9
NEW_PREFIX = "<new>"
DEFAULT_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.zip")


class CheckFailed(Exception):
    """An output that the benchmark rejects."""


def law_of_components(components) -> dict[str, float]:
    """Law from a mixture's (log-weight, MultiIndex) components."""
    return {",".join(map(str, idx.counts)): math.exp(lw) for lw, idx in components}


def law_of_cli_output(text: str) -> dict[str, float]:
    """Law from the line-oriented output of ``mvhmm smooth``."""
    law: dict[str, float] = {}
    expected = None
    index = None
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        if key == "n_components":
            expected = int(value)
        elif key == "index":
            index = value
        elif key == "log_weight":
            if index is None or index in law:
                raise CheckFailed(f"malformed component record near {line!r}")
            law[index] = math.exp(float(value))
            index = None
    if expected is None or expected != len(law):
        raise CheckFailed(f"output lists {len(law)} components, header says {expected}")
    return law


def check_law(law: dict[str, float], reference: dict[str, float] | None) -> None:
    weights = list(law.values())
    if not weights or not all(math.isfinite(w) and w >= 0.0 for w in weights):
        raise CheckFailed("law has no components or a non-finite weight")
    total = math.fsum(weights)
    if abs(total - 1.0) > NORM_TOL:
        raise CheckFailed(f"law weights sum to {total!r}")
    if reference is not None:
        tv = total_variation(law, reference)
        if tv > TV_TOL:
            raise CheckFailed(f"law is {tv:.3e} in total variation from the reference")


def total_variation(p: dict[str, float], q: dict[str, float]) -> float:
    keys = p.keys() | q.keys()
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def check_count_pmf(pmf: dict[int, float]) -> None:
    mass = math.fsum(pmf.values())
    if not 1.0 - PMF_TOL <= mass <= 1.0 + 1e-15:
        raise CheckFailed(f"count pmf mass {mass!r} outside [1-{PMF_TOL}, 1]")


def check_label_pmf(pmf: dict[str, float]) -> None:
    mass = math.fsum(pmf.values())
    if abs(mass - 1.0) > PMF_TOL:
        raise CheckFailed(f"predictive pmf sums to {mass!r}")


def check_labels(labels, registry_labels) -> None:
    known = set(registry_labels)
    for lab in labels:
        if lab not in known and not lab.startswith(NEW_PREFIX):
            raise CheckFailed(f"draw produced unknown label {lab!r}")


def reference_member(workload: str, dataset: int) -> str:
    """Name of the archive member holding one dataset's reference laws."""
    return f"{workload}/{dataset}.json"


class References:
    """Reference laws committed for the default seed.

    ``law(workload, dataset, index)`` is None when there is no reference:
    at other seeds, and where the query failed when the archive was written.
    Only the laws of the dataset last asked for are held in memory, so the
    references barely add to the run's peak resident set size.
    """

    def __init__(self, seed: int):
        self._enabled = seed == DEFAULT_SEED
        self._member = None
        self._laws = {}

    def law(self, workload: str, dataset: int, index: int) -> dict[str, float] | None:
        if not self._enabled:
            return None
        member = reference_member(workload, dataset)
        if member != self._member:
            self._laws = {}  # free the previous dataset's laws before parsing
            with zipfile.ZipFile(REFERENCE_PATH) as archive:
                self._laws = json.loads(archive.read(member))
            self._member = member
        return self._laws.get(str(index))
