#!/usr/bin/env python3
"""Identifiability and stability checks for the cyclic length-8 structure:
the orbit-intersection grid search and the distortion bounds of the
Gram-square-root measurement map.

    python3 scripts/run_analysis_checks.py --out results/analysis

Extra arguments go to both subcommands, so pass only flags both take:
``--structure``, ``--K``, ``--trials``, ``--seed`` and ``--out``
(``bilipschitz`` refuses ``--grid-res``, for one).
"""
import sys

from gramphase.cli import main

if __name__ == "__main__":
    extra = sys.argv[1:]
    code = main(["transversality", "--structure", "cyclic:8", "--K", "2",
                 "--seed", "11"] + extra)
    if code == 0:
        code = main(["bilipschitz", "--structure", "8x4", "--K", "4",
                     "--seed", "7"] + extra)
    sys.exit(code)
