#!/usr/bin/env python3
"""Time the analysis layers: the grid engine phase by phase, and the
distortion square roots at one and two workers.

    PYTHONPATH=src python3 scripts/time_analysis.py [--rounds R] [--parent DIR]

Grid engine: ``transversality_check`` on cyclic:8 at grid 512
(exclude_tol 0.5), one point per call, over 16 points: 8 evenly spaced
points of the half circle of a fixed 2-dimensional prior (the QR factor
of a seed-38 Gaussian ``8x2``), and 8 points checked against the span of
themselves and a quarter turn of their block 1 (a planted intersection).
It reports milliseconds per point for the whole check, for the engine
(``analysis._hull_grid_max``) and for its phases, each timed by wrapping
the analysis module's own helpers:

- keys and boxes: ``_base_bins`` (the base's int16 bin keys and per-bin
  boxes), split into two sub-phases that show where its time goes:
  keys, ``_binned`` (the bin keys of the base and of the query groups,
  and each bin's box of the binned coordinate, read off the bin's edges),
  and boxes, ``_bin_box`` (the exact per-bin box of the second
  coordinate, two ``ufunc.at`` scans).  Both count the query groups'
  calls too (at most 65,536 entries against the base's 1,048,576), and
  the rest of ``_base_bins`` is the building of the sums;
- bound ranking: ``_pair_bounds`` and ``_next_band`` (the corner bounds
  of the (group, bin) pairs, and each band of them the walk reaches);
- band orders: ``_band_order`` (the stable order of one band's bins);
- walk: the rest of the engine (the query groups and the walk itself);
  the sub-phases are not taken off it.

Distortion: ``distortion_ratios`` on 30,000 ``8x4`` pairs of coefficient
rows of a 4-dimensional prior, with ``blocks._workers`` patched to 1 and
to 2, in milliseconds per call.

``--parent DIR`` repeats everything with ``DIR/src`` on the path,
alternating with this checkout round by round, and prints the two side by
side; a phase whose helper a checkout lacks prints as ``-``.  Numbers are
medians over the rounds, each round a fresh process (``_rounds.py``),
with their first and third quartiles in brackets, so that a difference
between the sides can be read against either side's spread.  numpy only.
"""
import json
import statistics
import time

import _rounds

GRID = 512
EXCLUDE_TOL = 0.5
PAIRS = 30_000
DISTORTION_CALLS = 9
PHASES = (
    ("keys and boxes", ("_base_bins",)),
    ("bound ranking", ("_pair_bounds", "_next_band")),
    ("band orders", ("_band_order",)),
)
SUB_PHASES = (("keys", ("_binned",)), ("boxes", ("_bin_box",)))
COLUMNS = ("check", "engine", "keys and boxes", "keys", "boxes", "bound ranking",
           "band orders", "walk")


def _points():
    """(structure, prior, point) of every timed check."""
    import numpy as np
    from gramphase import LinearSubspacePrior, cyclic_structure

    s = cyclic_structure(8)
    basis = np.linalg.qr(np.random.default_rng(38).standard_normal((8, 2)))[0]
    regime = LinearSubspacePrior(basis)
    cases = []
    for k in range(8):
        theta = np.pi * (0.5 + k) / 8
        cases.append((s, regime, basis @ np.array([np.cos(theta), np.sin(theta)])))
    rng = np.random.default_rng(2026)
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    sl = s.block_slices[1]
    while len(cases) < 16:
        x = rng.standard_normal(8)
        x /= np.linalg.norm(x)
        if np.linalg.norm(x[sl]) ** 2 < 0.25:
            continue  # the turned copy would sit near a sign flip
        turned = x.copy()
        turned[sl] = quarter @ x[sl]
        cases.append((s, LinearSubspacePrior(np.linalg.qr(np.column_stack([x, turned]))[0]), x))
    return cases


def time_grid():
    """Milliseconds per point: the check, the engine and its phases."""
    import numpy as np
    from gramphase import analysis, transversality_check

    cases = _points()
    rng = np.random.default_rng(0)  # unused: every check is given its point

    def check(s, prior, x):
        transversality_check(s, prior, 1, GRID, rng, exclude_tol=EXCLUDE_TOL, points=[x])

    check(*cases[0])  # warm-up
    totals = {}
    for name in ["_hull_grid_max"] + [n for _, ns in PHASES + SUB_PHASES for n in ns]:
        if hasattr(analysis, name):
            _rounds.wrap(analysis, name, totals)
    t0 = time.perf_counter()
    for case in cases:
        check(*case)
    per = 1e3 / len(cases)
    out = {"check": per * (time.perf_counter() - t0), "engine": per * totals["_hull_grid_max"]}
    for label, ns in PHASES + SUB_PHASES:
        kept = all(hasattr(analysis, n) for n in ns)
        out[label] = per * sum(totals.get(n, 0.0) for n in ns) if kept else None
    phases = [out[label] for label, _ in PHASES]
    out["walk"] = None if None in phases else out["engine"] - sum(phases)
    return out


def time_distortion():
    """Milliseconds per ``distortion_ratios`` call at 1 and 2 workers."""
    import numpy as np
    from gramphase import RepresentationStructure, blocks, distortion_ratios

    s = RepresentationStructure(((8, 4),), "real")
    rng = np.random.default_rng(2026)
    basis = np.linalg.qr(rng.standard_normal((32, 4)))[0]
    x, y = rng.standard_normal((2, PAIRS, 4))
    saved = blocks._workers
    out = {}
    try:
        for workers in (1, 2):
            blocks._workers = lambda w=workers: w
            distortion_ratios(x, y, s, basis)  # warm-up
            times = []
            for _ in range(DISTORTION_CALLS):
                t0 = time.perf_counter()
                distortion_ratios(x, y, s, basis)
                times.append(time.perf_counter() - t0)
            out[f"distortion {workers}w"] = 1e3 * statistics.median(times)
    finally:
        blocks._workers = saved
    return out


def measure():
    """One round in this process."""
    return {**time_grid(), **time_distortion()}


def main():
    args = _rounds.parser(__doc__).parse_args()
    if args.child:
        print(json.dumps(measure()))
        return
    stats = _rounds.run(__file__, [], args.rounds, args.parent)
    sides = list(stats[0])
    print(f"grid {GRID} on cyclic:8, ms per point, median [q1, q3] of {args.rounds} rounds")
    print(f"{'phase':<16}" + "".join(f"{side:>26}" for side in sides))
    for c in COLUMNS:
        print(f"{c:<16}" + "".join(f"{_rounds.spread(stats, side, c, 2):>26}" for side in sides))
    print(f"distortion_ratios, {PAIRS} 8x4 pairs, ms per call")
    print(f"{'workers':<16}" + "".join(f"{side:>26}" for side in sides))
    for w in (1, 2):
        print(f"{w:<16}" + "".join(f"{_rounds.spread(stats, side, f'distortion {w}w', 2):>26}"
                                   for side in sides))
    print(json.dumps(dict(zip(("median", "q1", "q3"), stats))))


if __name__ == "__main__":
    main()
