#!/usr/bin/env python3
"""Write reference.zip: the smoothing laws of every dataset the benchmark
generates at the default seed, one archive member "<workload>/<dataset>.json"
per dataset, each keyed by index.

A query that raises has a null entry, so the benchmark checks only
normalization there.  Weights keep 12 significant digits, far inside the
1e-9 total-variation tolerance.  Run from the root of a source checkout:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import zipfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import mvhmm

    import checks
    import measure
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir, zipfile.ZipFile(
        checks.REFERENCE_PATH, "w", zipfile.ZIP_DEFLATED
    ) as archive:
        for name, plan in workloads.PLANS.items():
            for r in range(plan.datasets):
                ds = workloads.generate(name, checks.DEFAULT_SEED, r, workdir)
                config, timeline = measure.load(ds)
                laws = {}
                for i in sorted(set(ds.indices(plan.cold) + ds.indices(plan.session))):
                    try:
                        result = measure.smooth(config, timeline, i)
                    except mvhmm.MvhmmError:
                        laws[str(i)] = None
                        continue
                    law = checks.law_of_components(result.law.components)
                    laws[str(i)] = {k: float(f"{w:.12g}") for k, w in law.items()}
                text = json.dumps(laws, separators=(",", ":"), sort_keys=True) + "\n"
                # A fixed timestamp keeps the archive identical from run to run.
                member = zipfile.ZipInfo(checks.reference_member(name, r), (1980, 1, 1, 0, 0, 0))
                archive.writestr(member, text, zipfile.ZIP_DEFLATED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
