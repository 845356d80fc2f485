"""Output checks for the gramphase benchmark, written apart from the package.

Nothing here imports gramphase.  Every reference value is recomputed
from raw arrays with numpy and the standard library: the block layout,
Gram matrices, orbit distances, power spectra, moment matrices, grid
elements and file contents.  A fault in the package therefore cannot
hide in its own reference.  Each ``check_*`` function returns a list of
error messages, empty when the output passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# A converged subspace solve in the unique regime must sit this close to
# the truth's orbit (relative).  The stopping tolerance is 1e-6 on the
# normalized Gram residual; a spurious solution sits at distance O(1).
ORBIT_BOUND = 1e-3
# Agreement between a reported relative error and the recomputed one.
ORACLE_TOL = 1e-6
# Multiple of the standard deviation bound allowed for a Gram estimate.
GRAM_SIGMAS = 10.0
# median_error / sigma band for the noise sweep (see README).
NOISE_BAND = (0.2, 80.0)
SQRT2 = math.sqrt(2.0)


def block_slices(blocks):
    out, offset = [], 0
    for n, r in blocks:
        out.append(slice(offset, offset + n * r))
        offset += n * r
    return out


def split_blocks(v, blocks):
    """Ambient vector -> per-block ``(n, r)`` matrices, copies column-major."""
    v = np.asarray(v)
    return [v[sl].reshape((n, r), order="F") for (n, r), sl in zip(blocks, block_slices(blocks))]


def gram_mats(mats):
    return [m.conj().T @ m for m in mats]


def orbit_distance(x, y) -> float:
    """Distance between the orbits of ``x`` and ``y`` under a global phase.

    This is ``min_u ||x - u y||`` over ``u = +-1`` (real) or ``|u| = 1``
    (complex), which equals ``sqrt(max(|x|^2 + |y|^2 - 2|<x,y>|, 0))``.
    It is evaluated with the optimal ``u`` applied, which avoids the
    cancellation of the closed form near zero.
    """
    x, y = np.asarray(x), np.asarray(y)
    c = np.vdot(y, x)
    u = c / abs(c) if abs(c) > 0 else 1.0
    return float(np.linalg.norm(x - u * y))


def effective_dimension(blocks, field) -> int:
    """Real dimension minus the generic orbit dimension of prod O(n)/U(n)."""
    k_h, dim = 0, 0
    for n, r in blocks:
        if field == "real":
            k_h += math.comb(n, 2) - math.comb(max(n - r, 0), 2)
            dim += n * r
        else:
            k_h += n * n - max(n - r, 0) ** 2
            dim += 2 * n * r
    return dim - k_h


def _close(a, b, rel, abs_):
    return abs(a - b) <= abs_ + rel * abs(b)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def gram_residual(est_amb, grams, blocks) -> float:
    """Normalized Gram mismatch ``||G(est) - G|| / ||G||`` over the tuple."""
    mats = split_blocks(est_amb, blocks)
    num = sum(np.linalg.norm(g_est - g) ** 2 for g_est, g in zip(gram_mats(mats), grams))
    den = sum(np.linalg.norm(g) ** 2 for g in grams)
    return math.sqrt(num) / (math.sqrt(den) if den > 0 else 1.0)


def prior_errors(est_amb, prior) -> list[str]:
    """``prior`` is the benchmark's own description: a dict with ``kind``
    in subspace/sparsity/support and its arrays."""
    x = np.asarray(est_amb)
    scale = max(float(np.linalg.norm(x)), 1e-300)
    kind = prior["kind"]
    if kind == "subspace":
        b = prior["basis"]
        off = float(np.linalg.norm(x - b @ (b.conj().T @ x)))
        return [] if off <= 1e-9 * scale else [f"estimate leaves the subspace by {off:.3e}"]
    if kind == "sparsity":
        d = prior.get("dictionary")
        c = x if d is None else d.conj().T @ x
        nnz = int(np.count_nonzero(np.abs(c) > 1e-9 * scale))
        return [] if nnz <= prior["k"] else [f"estimate has {nnz} > {prior['k']} nonzeros"]
    if kind == "support":
        outside = float(np.max(np.abs(x[~prior["mask"]]), initial=0.0))
        return [] if outside == 0.0 else [f"estimate is {outside:.3e} off its support"]
    raise ValueError(f"unknown prior kind {kind!r}")


def check_solve(inst, est_amb, residual, converged, oracle_error, tol):
    """Check one solve report against the instance that produced it.

    Returns ``(errors, oracle_mismatch)``.  The oracle mismatch is kept
    apart so the caller can count the known complex-field fault as a
    failed operation instead of a wrong output.
    """
    errors = []
    res = gram_residual(est_amb, inst["grams"], inst["blocks"])
    if not _close(residual, res, 1e-6, 1e-12):
        errors.append(f"reported residual {residual!r} != recomputed {res!r}")
    errors += prior_errors(est_amb, inst["prior"])
    if converged and not res < tol * (1 + 1e-9):
        errors.append(f"reported converged with recomputed residual {res:.3e} >= tol {tol:g}")
    truth = inst["truth"]
    dist = orbit_distance(est_amb, truth) / float(np.linalg.norm(truth))
    if inst["unique"] and converged and dist > ORBIT_BOUND:
        errors.append(f"converged off the truth's orbit: relative distance {dist:.3e}")
    mismatch = oracle_error is None or not _close(oracle_error, dist, ORACLE_TOL, ORACLE_TOL)
    return errors, mismatch


# ---------------------------------------------------------------------------
# mra
# ---------------------------------------------------------------------------


def psd_errors(grams) -> list[str]:
    errors = []
    for l, g in enumerate(grams):
        g = np.asarray(g)
        scale = max(1.0, float(np.max(np.abs(g))))
        if np.max(np.abs(g - g.conj().T)) > 1e-10 * scale:
            errors.append(f"block {l}: estimate is not Hermitian")
            continue
        w = np.linalg.eigvalsh((g + g.conj().T) / 2)
        if w.min() < -1e-10 * max(float(np.real(np.trace(g))), 1e-300):
            errors.append(f"block {l}: estimate has eigenvalue {w.min():.3e} < 0")
    return errors


def gram_error_bound(truth_mats, sigma, n_obs, field) -> float:
    """``GRAM_SIGMAS`` times a bound on the standard deviation of the
    debiased Gram estimate from ``n_obs`` observations.

    With ``Y = D X + E`` (``D`` unitary, ``E`` i.i.d. noise of variance
    ``s2`` per entry), ``Y* Y - E[Y* Y] = X* D* E + E* D X + (E* E - n s2 I)``,
    whose mean squared Frobenius norm is at most
    ``4 r s2 ||X||^2 + n r (r + 1) s2^2`` per ``(n, r)`` block.  The group
    element drops out because ``X* D* D X = X* X``.  The estimate averages
    ``n_obs`` such terms, and the PSD clamp can only move it closer.
    """
    s2 = sigma**2 if field == "real" else 2.0 * sigma**2
    var = 0.0
    for m in truth_mats:
        n, r = m.shape
        var += 4.0 * r * s2 * float(np.linalg.norm(m)) ** 2 + n * r * (r + 1) * s2**2
    return GRAM_SIGMAS * math.sqrt(var / n_obs)


def check_gram_estimate(est_grams, truth_mats, sigma, n_obs, field) -> list[str]:
    errors = psd_errors(est_grams)
    truth = gram_mats(truth_mats)
    err = math.sqrt(sum(np.linalg.norm(np.asarray(a) - b) ** 2 for a, b in zip(est_grams, truth)))
    bound = gram_error_bound(truth_mats, sigma, n_obs, field)
    if not err <= bound:
        errors.append(f"Gram estimate off the truth by {err:.4g} > bound {bound:.4g}")
    return errors


def power_spectrum_grams(x_time) -> list[float]:
    """Gram tuple of a real cyclic signal from its numpy.fft power
    spectrum: ``P_0``, ``P_k + P_{N-k}`` per conjugate pair, ``P_{N/2}``."""
    n = len(x_time)
    p = np.abs(np.fft.fft(x_time)) ** 2 / n
    out = [p[0]]
    out += [p[k] + p[n - k] for k in range(1, (n - 1) // 2 + 1)]
    if n % 2 == 0 and n >= 2:
        out.append(p[n // 2])
    return [float(v) for v in out]


def check_cyclic_truth(truth_mats, x_time) -> list[str]:
    grams = [float(np.real(g[0, 0])) for g in gram_mats(truth_mats)]
    ref = power_spectrum_grams(x_time)
    if len(grams) != len(ref):
        return [f"cyclic truth has {len(grams)} blocks, power spectrum {len(ref)}"]
    scale = max(ref)
    worst = max(abs(a - b) for a, b in zip(grams, ref))
    if worst <= 1e-10 * scale:
        return []
    return [f"block Grams differ from the power spectrum by {worst:.3e}"]


def read_csv_table(path):
    """``(header, rows)`` of a comma-separated file, ``#`` lines skipped."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    table = list(csv.reader(lines))
    return table[0], table[1:]


def _matrix_from_csv(path) -> np.ndarray:
    header, rows = read_csv_table(path)
    data = np.array([[float(v) for v in row] for row in rows])
    if header and header[0].endswith("_re"):
        return data[:, 0::2] + 1j * data[:, 1::2]
    return data


def _array_from_json(obj) -> np.ndarray:
    if isinstance(obj, dict):
        return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    return np.asarray(obj, dtype=float)


def check_simulate_files(out_dir, returned, sigma, n_obs) -> list[str]:
    """The files ``run_simulate`` wrote parse back to what it returned, and
    the estimate they hold is within the statistical bound of their truth."""
    out = Path(out_dir)
    errors = []
    truth = json.loads((out / "truth.json").read_text())
    field = truth["structure"]["field"]
    mats = [_array_from_json(m) for m in truth["matrices"]]
    _, sample_rows = read_csv_table(out / "samples.csv")
    if len(sample_rows) != returned["n"] or returned["n"] != n_obs:
        errors.append(f"samples.csv has {len(sample_rows)} rows, returned n={returned['n']}")
    emp = _matrix_from_csv(out / "empirical_moment.csv")
    ana = _matrix_from_csv(out / "analytic_moment.csv")
    # the exact group average: block l holds kron(G_l^T, I_n) / n
    d = sum(m.size for m in mats)
    ref = np.zeros((d, d), dtype=ana.dtype)
    offset = 0
    for m in mats:
        n, r = m.shape
        sl = slice(offset, offset + n * r)
        ref[sl, sl] = np.kron((m.conj().T @ m).T, np.eye(n)) / n
        offset += n * r
    if np.max(np.abs(ana - ref)) > 1e-12 * max(1.0, float(np.max(np.abs(ref)))):
        errors.append("analytic_moment.csv differs from the exact group average of truth.json")
    err = float(np.linalg.norm(emp - ana))
    if not _close(returned["moment_error"], err, 1e-12, 0.0):
        errors.append(f"returned moment_error {returned['moment_error']!r} != files {err!r}")
    est = json.loads((out / "gram_estimated.json").read_text())
    est_grams = [_array_from_json(g) for g in est["grams"]]
    errors += check_gram_estimate(est_grams, mats, sigma, n_obs, field)
    return errors


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def check_csv_rows(path, fields, rows) -> list[str]:
    header, table = read_csv_table(path)
    if header != list(fields):
        return [f"{path}: header {header} != {list(fields)}"]
    if len(table) != len(rows):
        return [f"{path}: {len(table)} rows, runner returned {len(rows)}"]
    for got, want in zip(table, rows):
        for name, text in zip(fields, got):
            if float(text) != float(want[name]):
                return [f"{path}: {name}={text} but the runner returned {want[name]!r}"]
    return []


def check_sweep(iter_rows_by_round, noise_rows_by_round) -> list[str]:
    """Properties of the pooled sweep: rounds have equal trial counts, so
    the mean of per-round rates is the pooled rate; medians are taken over
    the per-round medians."""
    errors = []
    ks = [row["K"] for row in iter_rows_by_round[0]]
    med_iters = [float(np.median([rows[i]["median_iterations"] for rows in iter_rows_by_round]))
                 for i in range(len(ks))]
    if any(b < a for a, b in zip(med_iters, med_iters[1:])):
        errors.append(f"median iterations decrease with K: {dict(zip(ks, med_iters))}")
    rate = float(np.mean([rows[0]["convergence_rate"] for rows in iter_rows_by_round]))
    if rate < 0.9:
        errors.append(f"convergence rate {rate:.3f} < 0.9 at K={ks[0]}")
    sigmas = [row["sigma"] for row in noise_rows_by_round[0]]
    med_err = [float(np.median([rows[i]["median_error"] for rows in noise_rows_by_round]))
               for i in range(len(sigmas))]
    if any(b <= a for a, b in zip(med_err, med_err[1:])):
        errors.append("noisy median errors do not increase with sigma: "
                      f"{dict(zip(sigmas, med_err))}")
    lo, hi = NOISE_BAND
    for s, e in zip(sigmas, med_err):
        if not lo <= e / s <= hi:
            errors.append(f"median_error/sigma = {e / s:.3g} at sigma={s:g} outside [{lo}, {hi}]")
    return errors


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def _o2_grid(res):
    """All rotations then all reflections at angles 2 pi t / res."""
    t = 2.0 * np.pi * np.arange(res) / res
    c, s = np.cos(t), np.sin(t)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    ref = np.stack([np.stack([c, s], -1), np.stack([s, -c], -1)], -2)
    return np.concatenate([rot, ref])


def sampled_grid_distance(x_amb, basis, blocks, res, exclude_tol, count, rng) -> float:
    """Smallest distance to span(basis) among ``count`` random grid images
    of the unit vector ``x_amb`` that lie outside the sign-flip exclusion
    (``inf`` if none does).  Blocks of dimension 1 take a sign, blocks of
    dimension 2 an O(2) element on the grid."""
    x = np.asarray(x_amb, dtype=float)
    x = x / np.linalg.norm(x)
    o2 = _o2_grid(res)
    parts = []
    for (n, r), m in zip(blocks, split_blocks(x, blocks)):
        if n == 1:
            mats = rng.choice([-1.0, 1.0], size=count)[:, None, None]
        elif n == 2:
            mats = o2[rng.integers(0, 2 * res, size=count)]
        else:
            raise ValueError("grid elements exist for blocks of dimension 1 or 2")
        y = np.einsum("gij,jr->gir", mats, m)
        parts.append(y.transpose(0, 2, 1).reshape(count, -1))
    y = np.concatenate(parts, axis=1)
    tau = 1.0 - exclude_tol**2 / 2.0
    # stay clear of the exclusion boundary, where rounding could flip a side
    keep = np.abs(y @ x) < tau - 1e-9
    if not keep.any():
        return math.inf
    y = y[keep]
    inside = np.linalg.norm(y @ basis, axis=1)
    return float(np.sqrt(np.maximum(np.linalg.norm(y, axis=1) ** 2 - inside**2, 0.0)).min())


def check_margin_upper_bound(margin, sampled) -> list[str]:
    if margin <= sampled + 1e-9:
        return []
    return [f"reported margin {margin:.6g} exceeds a sampled grid distance {sampled:.6g}"]


def check_violation(x_amb, element_blocks, basis, blocks, margin, exclude_tol) -> list[str]:
    """A reported violation's element, applied independently, must land at
    the reported distance from the subspace and outside the exclusion."""
    x = np.asarray(x_amb, dtype=float)
    x = x / np.linalg.norm(x)
    y = np.concatenate([
        (np.asarray(d) @ m).flatten(order="F")
        for d, m in zip(element_blocks, split_blocks(x, blocks))
    ])
    dist = float(np.linalg.norm(y - basis @ (basis.T @ y)))
    errors = []
    if abs(dist - margin) > 1e-7:
        errors.append(f"violation element lies {dist:.3e} from the subspace, reported {margin:.3e}")
    if abs(float(y @ x)) >= 1.0 - exclude_tol**2 / 2.0:
        errors.append("violation element is inside the sign-flip exclusion")
    return errors


def check_distortion(alpha, beta, pairs, sampled, skipped) -> list[str]:
    errors = []
    if not 0.0 < alpha <= beta <= SQRT2 * (1 + 1e-9):
        errors.append(f"distortion bounds violate 0 < {alpha!r} <= {beta!r} <= sqrt(2)")
    if sampled + skipped != pairs:
        errors.append(f"{sampled} sampled + {skipped} skipped != {pairs} pairs")
    return errors


def check_scalar_distortion(alpha, beta) -> list[str]:
    """On one real scalar block ``| |x| - |y| | = min |x -+ y|`` exactly."""
    if abs(alpha - 1.0) <= 1e-12 and abs(beta - 1.0) <= 1e-12:
        return []
    return [f"scalar structure gives ratios [{alpha!r}, {beta!r}], not exactly 1"]
