"""The round driver of the timing scripts (``time_solver.py``,
``time_analysis.py``, ``time_import.py``).

A script measures one round in a fresh child process (itself run with
``--child``, with a checkout's ``src`` on ``PYTHONPATH``, printing one
JSON object) and reports medians over the rounds.  With ``--parent DIR``
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


def medians(rounds):
    """The median of each number over the rounds, nested as in a round;
    ``None`` (a phase whose helper the checkout lacks) is skipped, a
    number that is ``None`` in every round stays ``None``, and a string
    (a label, the same in every round) is kept as the first round has it."""
    if isinstance(rounds[0], dict):
        return {key: medians([r[key] for r in rounds]) for key in rounds[0]}
    if isinstance(rounds[0], str):
        return rounds[0]
    values = [v for v in rounds if v is not None]
    return statistics.median(values) if values else None


def run(script, args, count, parent=None):
    """``{side: medians}`` of ``count`` rounds of ``script`` per side:
    ``"parent"`` (with ``parent``) and ``"this"``, in that order."""
    sides = {"this": ROOT / "src"}
    if parent:
        sides = {"parent": parent.resolve() / "src", **sides}
    rounds = {side: [] for side in sides}
    for i in range(count):
        for side in list(sides)[:: 1 if i % 2 == 0 else -1]:
            rounds[side].append(child(script, sides[side], args))
    return {side: medians(r) for side, r in rounds.items()}
