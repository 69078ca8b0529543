"""Record perfbench/reference.json from the current tree.

    python3 perfbench/make_reference.py

Stores, for inputs that do not depend on the benchmark seed, the values
the output checks compare against: each sweep row's M, sup_err and
omega_ref, and the grid sup error of each eval build's coefficient form
against its corpus target.  Re-record only when a change is meant to
alter these numbers, and say so in that change.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, libsession, workloads  # noqa: E402

def main():
    import jacksonlab
    from jacksonlab import cli

    sweep = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "sweep.csv"
        for method, n_range, target in (s for w in workloads.SWEEPS.values() for s in w):
            cli.main(["sweep", "--method", method, "--n", n_range, "--target", target,
                      "--output", str(out)], standalone_mode=False)
            for row in csv.DictReader(io.StringIO(out.read_text())):
                sweep[f"{method}/{target}/{row['n']}"] = {
                    "M": row["M"], "sup_err": float(row["sup_err"]),
                    "omega_ref": float(row["omega_ref"])}
    build = {}
    grid = np.linspace(0.0, 1.0, workloads.GRID)
    for method, target, n in workloads.EVAL_BUILDS:
        approx = jacksonlab.build_approximant(jacksonlab.get_target(target), method, n)
        form = libsession.coefficient_form(approx, n, method in libsession.TRIG_METHODS)
        build[f"{method}/{target}/{n}"] = float(
            np.max(np.abs(checks.CORPUS[target](grid) - form(grid))))
    with open(ROOT / "perfbench" / "reference.json", "w") as fh:
        json.dump({"sweep": sweep, "build": build}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
