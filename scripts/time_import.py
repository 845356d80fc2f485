#!/usr/bin/env python3
"""Time the cold start: ``import gramphase`` and the first use of a
deferred name.

    PYTHONPATH=src python3 scripts/time_import.py [--rounds R] [--parent DIR]

Each round is a fresh process that imports numpy and scipy first, as the
benchmark's workload process does, and then times, in milliseconds:

- ``import gramphase`` without bytecode: the modules are compiled from
  source and nothing is written (the benchmark's
  ``PYTHONDONTWRITEBYTECODE=1`` on a fresh checkout);
- the first access of ``gramphase.transversality_check`` and then of
  ``gramphase.ExperimentConfig``, still without bytecode: the grid engine,
  and the runners with the serializer, where they load on first use;
- ``import gramphase`` with bytecode, in a further fresh process that
  reads what a first one wrote under a temporary ``PYTHONPYCACHEPREFIX``
  (never under ``src/``).

It also lists the ``gramphase.*`` modules loaded after the plain import.
``--parent DIR`` repeats everything with ``DIR/src`` on the path,
alternating with this checkout round by round, and prints the two side
by side; numbers are medians over the rounds (``_rounds.py``).
"""
import json
import os
import subprocess
import sys
import tempfile
import time

import _rounds

COLUMNS = ("import", "import cached", "transversality_check", "ExperimentConfig")
CACHED = ("import time, numpy, scipy\n"
          "t0 = time.perf_counter()\n"
          "import gramphase\n"
          "print(1e3 * (time.perf_counter() - t0))\n")


def cached_import():
    """Milliseconds of ``import gramphase`` in a fresh process, with the
    bytecode that an earlier process wrote under a temporary prefix."""
    with tempfile.TemporaryDirectory() as prefix:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        for _ in range(2):  # the first run writes the bytecode
            out = subprocess.run([sys.executable, "-c", CACHED], env=env, check=True,
                                 capture_output=True, text=True).stdout
    return float(out)


def measure():
    """One round in this process, which must not have imported gramphase."""
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as empty:
        sys.pycache_prefix = empty  # no bytecode to read
        t0 = time.perf_counter()
        import gramphase
        t1 = time.perf_counter()
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "gramphase")
        gramphase.transversality_check
        t2 = time.perf_counter()
        gramphase.ExperimentConfig
        t3 = time.perf_counter()
    return {"import": 1e3 * (t1 - t0), "import cached": cached_import(),
            "transversality_check": 1e3 * (t2 - t1), "ExperimentConfig": 1e3 * (t3 - t2),
            "loaded": " ".join(loaded)}


def main():
    args = _rounds.parser(__doc__).parse_args()
    if args.child:
        print(json.dumps(measure()))
        return
    med = _rounds.run(__file__, [], args.rounds, args.parent)[0]
    print(f"ms, median of {args.rounds} rounds; numpy and scipy imported first")
    print(f"{'side':<7}" + "".join(f"{c:>22}" for c in COLUMNS))
    for side in med:
        print(f"{side:<7}" + "".join(f"{med[side][c]:>22.2f}" for c in COLUMNS))
    for side in med:
        print(f"{side}: loaded by the import: {med[side]['loaded']}")
    print(json.dumps(med))


if __name__ == "__main__":
    main()
