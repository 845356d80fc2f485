#!/usr/bin/env python3
"""Time the full-ambiguity sampler and the Haar stack at one and two workers.

    PYTHONPATH=src python3 scripts/time_sampler.py [--rounds R] [--parent DIR]

On ``8x4,3x2``, real and complex, it times ``sample_observations`` of
100,000 full-ambiguity observations (sigma 0.1) and ``haar_stack(8,
100_000)``, each with ``blocks._workers`` patched to 1 and to 2, in
milliseconds per call: the best of several calls in a round.  The
``sample square`` and ``sample wide`` cases draw as many real
observations on the square blocks ``8x8,3x3`` and on the wide blocks
``2x6,1x3``, whose draws use every reflector, on the R of one QR per
block and call since every block takes that path.  The tall ``sample
real`` and ``sample complex`` cases took that path before, with the
same bits, so they are the controls for a change to the square and wide
blocks: the machine's drift between the sides can be read off them.
Each case also reports its tracemalloc peak over the output's bytes,
from one further call at two workers (the traced call is not timed).

``--parent DIR`` repeats everything with ``DIR/src`` on the path,
alternating with this checkout round by round, and prints the two side
by side.  Numbers are medians over the rounds, each round a fresh
process (``_rounds.py``), with their first and third quartiles in
brackets, so that a difference between the sides can be read against
either side's spread.  numpy only.
"""
import json
import time
import tracemalloc

import _rounds

COUNT = 100_000
CALLS = 5
CASES = ("sample real", "sample complex", "sample square", "sample wide", "haar_stack real",
         "haar_stack complex")


def _calls():
    """``{case: call}``, each call returning the array it made."""
    import numpy as np
    from gramphase import (RepresentationStructure, blocks, full_ambiguity_action,
                           random_signal, sample_observations)

    calls = {}
    for field in ("real", "complex"):
        s = RepresentationStructure(((8, 4), (3, 2)), field)
        x = random_signal(s, np.random.default_rng(2026))
        action = full_ambiguity_action(s)
        calls[f"sample {field}"] = (
            lambda x=x, action=action: sample_observations(x, action, 0.1, COUNT, 7).observations)
        calls[f"haar_stack {field}"] = (
            lambda field=field: blocks.haar_stack(8, COUNT, field, np.random.default_rng(7)))
    for case, shapes in (("square", ((8, 8), (3, 3))), ("wide", ((2, 6), (1, 3)))):
        s = RepresentationStructure(shapes)
        x = random_signal(s, np.random.default_rng(2026))
        action = full_ambiguity_action(s)
        calls[f"sample {case}"] = (lambda x=x, action=action:
                                   sample_observations(x, action, 0.1, COUNT, 7).observations)
    return calls


def _peak(call):
    """Traced peak bytes of one call above what was held before it, over
    the bytes of the array it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        return (tracemalloc.get_traced_memory()[1] - before) / out.nbytes
    finally:
        tracemalloc.stop()


def measure():
    """One round in this process."""
    from gramphase import blocks

    saved = blocks._workers
    out = {}
    try:
        for case, call in _calls().items():
            for workers in (1, 2):
                blocks._workers = lambda w=workers: w
                best = float("inf")
                for _ in range(CALLS):
                    t0 = time.perf_counter()
                    call()
                    best = min(best, time.perf_counter() - t0)
                out[f"{case} {workers}w"] = 1e3 * best
            out[f"{case} peak"] = _peak(call)
    finally:
        blocks._workers = saved
    return out


def main():
    args = _rounds.parser(__doc__).parse_args()
    if args.child:
        print(json.dumps(measure()))
        return
    stats = _rounds.run(__file__, [], args.rounds, args.parent)
    print(f"{COUNT} draws on 8x4,3x2 (square: 8x8,3x3; wide: 2x6,1x3; haar_stack: 8x8), "
          f"ms per call (best of {CALLS}) "
          f"and traced peak over the output, median [q1, q3] of {args.rounds} rounds")
    print(f"{'case':<20}{'side':<8}{'1 worker':>24}{'2 workers':>24}{'peak/out':>24}")
    for case in CASES:
        for side in stats[0]:
            print(f"{case:<20}{side:<8}" + "".join(
                f"{_rounds.spread(stats, side, f'{case} {key}', digits):>24}"
                for key, digits in (("1w", 1), ("2w", 1), ("peak", 3))))
    print(json.dumps(dict(zip(("median", "q1", "q3"), stats))))


if __name__ == "__main__":
    main()
