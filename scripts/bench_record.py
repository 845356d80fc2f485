#!/usr/bin/env python3
"""Record the benchmark's end-to-end medians in BENCH_<N>.json.

    python3 scripts/bench_record.py N [--parent DIR] [--note TEXT]

Reads every untraced result of this checkout
(``.bench_out/results/*-trace0.json``, one file per workload and seed, as
``bench/run.py`` writes them) and writes, per workload, the median and
quartiles of each end-to-end metric over those runs, with the failed and
attempted operation counts, to ``BENCH_<N>.json`` at the root of the
checkout.  ``--parent DIR`` records the results of the checkout at DIR
(typically the parent commit, run on the same seeds) beside them.  Then it
prints each median against the newest earlier ``BENCH_*.json``, or against
the parent's medians when there is none.  Standard library only.
"""
import argparse
import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def summarize(checkout: Path) -> dict:
    """Per workload: seeds, operation counts and metric quartiles."""
    runs = {}
    for path in sorted((checkout / ".bench_out" / "results").glob("*-trace0.json")):
        result = json.loads(path.read_text())
        runs.setdefault(result["workload"], []).append(result)
    summary = {}
    for workload, results in sorted(runs.items()):
        metrics = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {"unit": first["unit"], "median": statistics.median(values),
                             "q1": q1, "q3": q3}
        summary[workload] = {
            "seeds": sorted(r["seed"] for r in results),
            "incorrect_runs": sum(not r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
    return summary


def newest_record(below: int):
    """The existing BENCH_<n>.json with the largest n below ``below``."""
    numbered = [(int(m.group(1)), path) for path in ROOT.glob("BENCH_*.json")
                if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))]
    earlier = [(n, path) for n, path in numbered if n < below]
    return max(earlier)[1] if earlier else None


def report(before: dict, after: dict, label: str) -> None:
    print(f"medians against {label}:")
    for workload, entry in after.items():
        old = before.get(workload)
        if old is None:
            print(f"  {workload}: not in {label}")
            continue
        for name, metric in entry["metrics"].items():
            was, now = old["metrics"][name]["median"], metric["median"]
            change = f"{now / was - 1:+.1%}" if was else "n/a"
            print(f"  {workload:9s} {name:12s} {was:12.4g} -> {now:12.4g} "
                  f"{metric['unit']:6s} {change}")
        print(f"  {workload:9s} {'failed':12s} {old['failed']:>6d}/{old['attempted']:<5d} -> "
              f"{entry['failed']:>6d}/{entry['attempted']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Record benchmark medians in BENCH_<N>.json.")
    ap.add_argument("number", type=int, help="N in BENCH_<N>.json")
    ap.add_argument("--parent", type=Path, help="root of a checkout to record as the parent")
    ap.add_argument("--note", default="", help="how and where the runs were made")
    args = ap.parse_args(argv)
    change = summarize(ROOT)
    if not change:
        ap.error(f"no results in {ROOT / '.bench_out' / 'results'}; run bench/run.py first")
    record = {"note": args.note}
    if args.parent is not None:
        record["parent"] = summarize(args.parent)
    record["change"] = change
    out = ROOT / f"BENCH_{args.number}.json"
    previous = newest_record(args.number)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    if previous is not None:
        report(json.loads(previous.read_text())["change"], change, previous.name)
    elif "parent" in record:
        report(record["parent"], change, "the parent's results")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
