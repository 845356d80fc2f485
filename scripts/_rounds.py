"""The round driver of the timing scripts (``time_solver.py``,
``time_analysis.py``, ``time_import.py``).

A script measures one round in a fresh child process (itself run with
``--child``, with a checkout's ``src`` on ``PYTHONPATH``, printing one
JSON object) and reports medians over the rounds, with the first and
third quartiles beside them where a script prints them.  With ``--parent DIR``
each round runs ``DIR/src`` and this checkout, the side that goes first
alternating from round to round.  numpy only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parser(doc: str) -> argparse.ArgumentParser:
    """The options every timing script takes: ``--rounds``, ``--parent``
    and the hidden ``--child``."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--parent", type=Path, help="checkout to time beside this one")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return ap


def wrap(owner, name, totals):
    """Replace ``owner.name`` by a wrapper that adds the wall time of each
    call to ``totals[name]``; returns the original, to put back."""
    fn = getattr(owner, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        totals[name] = totals.get(name, 0.0) + time.perf_counter() - t0
        return out

    setattr(owner, name, timed)
    return fn


def child(script, src, args):
    """One round: ``script --child *args`` with ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, str(script), "--child", *args]
    return json.loads(subprocess.run(cmd, env=env, check=True, capture_output=True,
                                     text=True).stdout)


def summary(rounds, stat=statistics.median):
    """``stat`` of each number over the rounds, nested as in a round;
    ``None`` (a phase whose helper the checkout lacks) is skipped, a
    number that is ``None`` in every round stays ``None``, and a string
    (a label, the same in every round) is kept as the first round has it."""
    if isinstance(rounds[0], dict):
        return {key: summary([r[key] for r in rounds], stat) for key in rounds[0]}
    if isinstance(rounds[0], str):
        return rounds[0]
    values = [v for v in rounds if v is not None]
    return stat(values) if values else None


def quartile(q):
    """The ``q``-th quartile (1 or 3) of some numbers, inside their range."""
    return lambda values: (statistics.quantiles(values, n=4, method="inclusive")[q - 1]
                           if len(values) > 1 else values[0])


def run(script, args, count, parent=None):
    """``(medians, q1, q3)`` of ``count`` rounds of ``script`` per side, each
    ``{side: numbers}`` with the sides ``"parent"`` (with ``parent``) and
    ``"this"``, in that order: the median and the first and third
    quartiles of each number over the rounds."""
    sides = {"this": ROOT / "src"}
    if parent:
        sides = {"parent": parent.resolve() / "src", **sides}
    rounds = {side: [] for side in sides}
    for i in range(count):
        for side in list(sides)[:: 1 if i % 2 == 0 else -1]:
            rounds[side].append(child(script, sides[side], args))
    return tuple({side: summary(r, stat) for side, r in rounds.items()}
                 for stat in (statistics.median, quartile(1), quartile(3)))


def spread(stats, side, key, digits=1):
    """``median [q1, q3]`` of ``key`` on ``side``, from what :func:`run`
    returns, or ``-`` for a number the checkout lacks."""
    med, q1, q3 = (s[side][key] for s in stats)
    if med is None:
        return "-"
    return f"{med:.{digits}f} [{q1:.{digits}f}, {q3:.{digits}f}]"
