"""One workload process: import, build inputs, measure, check, report.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``::

    python3 bench/measure.py --workload solve --seed 1 --seconds 15 \
        --trace 0 --launched <time.monotonic() before launch> --out .bench_out

It prints one JSON object on its last stdout line.  With ``--setup-only``
it stops once the first round's inputs are built.  With ``--trace 1`` it
runs the rounds with the tracer installed, replays the same rounds
without it to measure the tracing overhead, times the solver kernels
alone, and reports the per-layer metrics.

The CPUs of a shared machine change speed by up to a factor of two over
seconds to minutes, as neighbours load them.  Each process therefore
times a fixed calibration mix (interpreter loop plus small LAPACK calls,
no gramphase code) after its set-up and before every quarter second of
timed calls; ``run.py`` scales the end-to-end times by the calibration
time against its reference, so they read as seconds on a machine of
reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import time
from pathlib import Path


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t_import = time.perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import gramphase as gp
    import_s = time.perf_counter() - t_import

    import workloads

    out = Path(args.out)
    work = workloads.WORKLOADS[args.workload](gp, args.seed, out / "scratch" / args.workload)
    first = work.inputs(0)
    result = {"setup_s": time.monotonic() - args.launched, "import_s": import_s}
    calibrate = Calibration()
    result["setup_calibration_s"] = statistics.median(calibrate() for _ in range(3))
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        clock = workloads.Clock()
        result.update(traced_run(gp, work, first, clock, args.seconds, out))
        result["layers"]["process.import_s"] = import_s
    else:
        clock = workloads.Clock(calibrate)
        result.update(run_rounds(work, first, clock, args.seconds))
    result["timed_s"] = clock.timed
    result["segments"] = clock.segments
    result["errors"] += work.finish()
    result["correct"] = not result["errors"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment(gp)
    print(json.dumps(result))
    return 0


class Calibration:
    """Times a fixed mix of work that runs no gramphase code: an
    interpreter loop and small SVD, eigh and matmul calls, the two kinds
    of work the solver iteration and the samplers spend their time on."""

    def __init__(self):
        import numpy as np

        a = np.random.default_rng(0).standard_normal((8, 4))
        self.a, self.g = a, a.T @ a
        self.np = np

    def __call__(self) -> float:
        np, a, g = self.np, self.a, self.g
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        for _ in range(600):
            u, _, vh = np.linalg.svd(a, full_matrices=False)
            np.linalg.eigh(g)
            (u @ vh) @ g
        return time.perf_counter() - t0


def run_rounds(work, first, clock, seconds, rounds=None, check=True, start=0):
    """Whole rounds from round ``start`` (inputs ``first``) until ``seconds``
    of timed calls, or until ``rounds`` rounds."""
    attempted = failed = done = 0
    errors = []
    inp = first
    while clock.timed < seconds if rounds is None else done < rounds:
        ops, bad, errs = work.run(inp, clock, check=check)
        attempted += ops
        failed += bad
        errors += errs
        done += 1
        inp = work.inputs(start + done)
    return {"rounds": done, "attempted": attempted, "failed": failed, "errors": errors[:20]}


def traced_run(gp, work, first, clock, seconds, out):
    import spans
    import workloads

    # Round 0 runs untraced and unmeasured, so one-time costs such as the
    # BLAS thread pool start-up fall in neither the traced rounds nor
    # their untraced replay, whose difference is the tracing overhead.
    work.run(first, workloads.Clock(), check=False)
    tracer = spans.Tracer()
    install(tracer, gp)
    cpu0, wall0 = _cpu(), time.perf_counter()
    try:
        res = run_rounds(work, work.inputs(1), clock, seconds, start=1)
    finally:
        tracer.uninstall()
    cpu_s, wall_s = _cpu() - cpu0, time.perf_counter() - wall0

    replay = workloads.Clock()
    run_rounds(work, work.inputs(1), replay, None, rounds=res["rounds"], check=False, start=1)

    layers = layer_metrics(tracer)
    layers.update(kernel_metrics(gp, work))
    layers["process.cpu_s"] = cpu_s
    layers["process.wall_s"] = wall_s
    layers["trace.overhead_s"] = clock.timed - replay.timed
    layers["trace.spans"] = float(len(tracer.spans))
    tracer.write(out / "trace" / f"{work.name}.spans.jsonl")
    res["layers"] = layers
    res["untraced_timed_s"] = replay.timed
    return res


def _cpu():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def install(tracer, gp):
    """Wrap each module's public functions where their callers look them up."""
    import workloads

    ex, so, mo, an, se = gp.experiments, gp.solvers, gp.moments, gp.analysis, gp.serialize
    w = tracer.wrap

    def on_solve(args, kwargs, rep, _):
        tracer.count("solve.iterations", rep.iterations_used)
        tracer.count("solve.converged", rep.converged)

    def on_sample(args, kwargs, samples, seconds):
        kind = args[1].kind
        tracer.count(f"sample.obs.{kind}", samples.n)
        tracer.count(f"sample.s.{kind}", seconds)
        tracer.peak("sample.mb", samples.observations.nbytes / 1e6)

    def on_moment(args, kwargs, moment, _):
        # the moment, plus the conjugated copy it makes of complex observations
        obs = args[0].observations
        copy = obs.nbytes if obs.dtype.kind == "c" else 0
        tracer.peak("moment.mb", (moment.nbytes + copy) / 1e6)

    def on_transversality(args, kwargs, rep, _):
        tracer.count("transversality.points", rep.samples_checked)
        tracer.count("transversality.grid_elements",
                     rep.samples_checked * workloads.grid_elements(args[0].blocks, args[3]))

    def on_distortion(args, kwargs, rep, _):
        structure, pairs = args[0], args[2]
        tracer.count("distortion.pairs", pairs)
        # pair arrays x and y, and per side the Gram, eigenvector and root stacks
        words = pairs * (2 * structure.ambient_dim
                         + 2 * sum(3 * r * r for _, r in structure.blocks))
        tracer.peak("distortion.mb", 8 * words / 1e6)

    def on_write(args, kwargs, _, seconds):
        if not tracer.caller().startswith("serialize."):
            tracer.count("serialize.bytes", os.path.getsize(args[0]))
            tracer.count("serialize.s", seconds)

    for fn in ("run_iterations_vs_k", "run_error_vs_noise", "run_simulate"):
        w(ex, fn, f"experiments.{fn}")
    for owner in (gp, ex):
        w(owner, "solve", "solvers.solve", on_solve)
        w(owner, "sample_observations", "moments.sample_observations", on_sample)
        w(owner, "empirical_second_moment", "moments.empirical_second_moment", on_moment)
        w(owner, "extract_gram", "moments.extract_gram")
        w(owner, "transversality_check", "analysis.transversality_check", on_transversality)
        w(owner, "distortion_estimate", "analysis.distortion_estimate", on_distortion)
    for owner in (so, an):
        w(owner, "matrix_sqrt_psd", "solvers.matrix_sqrt_psd")
    for owner in (ex, an):
        w(owner, "gram_tuple", "moments.gram_tuple")
    for owner in (ex, so):
        w(owner, "random_signal", "blocks.random_signal")
        w(owner, "decompose", "blocks.decompose")
    w(so, "project_prior", "priors.project_prior")
    w(ex, "random_subspace_prior", "priors.random_subspace_prior")
    w(mo, "haar_sample", "blocks.haar_sample")
    w(mo, "apply", "blocks.apply")
    w(an, "distortion_ratios", "analysis.distortion_ratios")
    for fn in ("write_csv", "write_matrix_csv", "write_samples_csv", "save_json"):
        w(se, fn, f"serialize.{fn}", on_write)


def layer_metrics(tracer):
    tot, c, pk = tracer.totals(), tracer.counts, tracer.peaks

    def s(name, key="s"):
        return tot[name][key] if name in tot else 0.0

    def calls(name):
        return float(tot[name]["calls"]) if name in tot else 0.0

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    solve_calls = calls("solvers.solve")
    iters = c["solve.iterations"]
    runners = ("run_iterations_vs_k", "run_error_vs_noise", "run_simulate")
    return {
        "experiments.runner.self_s": sum(s(f"experiments.{fn}", "self_s") for fn in runners),
        "experiments.trials": float(tracer.under("solvers.solve", "experiments.run_")),
        "solvers.solve.calls": solve_calls,
        "solvers.solve.self_s": s("solvers.solve", "self_s"),
        "solvers.solve.iterations": iters,
        "solvers.solve.us_per_iter": per(s("solvers.solve"), iters, 1e6),
        "solvers.solve.converged_ratio": per(c["solve.converged"], solve_calls),
        "solvers.matrix_sqrt_psd.calls": calls("solvers.matrix_sqrt_psd"),
        "solvers.matrix_sqrt_psd.s": s("solvers.matrix_sqrt_psd"),
        "priors.project_prior.calls": calls("priors.project_prior"),
        "priors.project_prior.s": s("priors.project_prior"),
        "priors.random_subspace_prior.s": s("priors.random_subspace_prior"),
        "moments.gram_tuple.s": s("moments.gram_tuple"),
        "moments.sample_observations.us_per_obs.cyclic": per(
            c["sample.s.cyclic"], c["sample.obs.cyclic"], 1e6),
        "moments.sample_observations.us_per_obs.full": per(
            c["sample.s.full_ambiguity"], c["sample.obs.full_ambiguity"], 1e6),
        "moments.sample_observations.mb": pk["sample.mb"],
        "moments.empirical_second_moment.s": s("moments.empirical_second_moment"),
        "moments.empirical_second_moment.mb": pk["moment.mb"],
        "moments.extract_gram.s": s("moments.extract_gram"),
        "blocks.haar_sample.calls": calls("blocks.haar_sample"),
        "blocks.haar_sample.s": s("blocks.haar_sample"),
        "blocks.apply.calls": calls("blocks.apply"),
        "blocks.apply.s": s("blocks.apply"),
        "blocks.random_signal.s": s("blocks.random_signal"),
        "blocks.decompose.s": s("blocks.decompose"),
        "analysis.transversality_check.s_per_point": per(
            s("analysis.transversality_check"), c["transversality.points"]),
        "analysis.transversality_check.grid_elements": c["transversality.grid_elements"],
        "analysis.distortion_estimate.us_per_pair": per(
            s("analysis.distortion_estimate"), c["distortion.pairs"], 1e6),
        "analysis.distortion_ratios.s": s("analysis.distortion_ratios"),
        "analysis.distortion_estimate.mb": pk["distortion.mb"],
        "serialize.write.s": c["serialize.s"],
        "serialize.bytes_written": c["serialize.bytes"],
    }


def kernel_metrics(gp, work, calls=2000):
    """The solver kernels timed alone, untraced, on the workload's blocks:
    mean microseconds per call over the block shapes."""
    import numpy as np

    blocks, field = work.KERNEL_BLOCKS
    s = gp.RepresentationStructure(blocks, field)
    rng = np.random.default_rng(0)
    totals = {"procrustes_project": 0.0, "matrix_sqrt_psd": 0.0}
    for n, r in blocks:
        x = rng.standard_normal((n, r))
        g = x.T @ x
        xt = rng.standard_normal((n, r))
        for name, fn, args in (("procrustes_project", gp.procrustes_project, (g, xt)),
                               ("matrix_sqrt_psd", gp.matrix_sqrt_psd, (g,))):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(*args)
            totals[name] += time.perf_counter() - t0
    prior = gp.LinearSubspacePrior(np.linalg.qr(rng.standard_normal((s.ambient_dim, 4)))[0])
    v = rng.standard_normal(s.ambient_dim)
    t0 = time.perf_counter()
    for _ in range(calls):
        gp.project_prior(v, prior)
    prior_s = time.perf_counter() - t0
    shapes = len(blocks) * calls
    return {
        "solvers.procrustes_project.us_per_call": totals["procrustes_project"] / shapes * 1e6,
        "solvers.matrix_sqrt_psd.us_per_call": totals["matrix_sqrt_psd"] / shapes * 1e6,
        "priors.project_prior.us_per_call": prior_s / calls * 1e6,
    }


def environment(gp):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "gramphase_file": gp.__file__,
    }


if __name__ == "__main__":
    raise SystemExit(main())
