"""JSON and CSV interchange for structures, signals, measurements, priors
and reports.

JSON carries every structured object; complex arrays are stored as
``{"re": ..., "im": ...}`` pairs of nested lists.  CSV files are
comma-separated with ``.`` decimals, one header row, and ``#``-prefixed
provenance comment lines before the header.  Floats are written with
``repr`` (shortest round-trip form) so identical runs produce identical
bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .blocks import BlockSignal, RepresentationStructure
from .moments import GramTuple, MraSampleSet
from .priors import LinearSubspacePrior, PriorSpec, SparsityPrior, SupportPrior
from .solvers import SolveReport

__all__ = [
    "array_to_json",
    "array_from_json",
    "structure_to_dict",
    "structure_from_dict",
    "signal_to_dict",
    "signal_from_dict",
    "gram_to_dict",
    "gram_from_dict",
    "prior_to_dict",
    "prior_from_dict",
    "solve_report_to_dict",
    "save_json",
    "load_json",
    "write_csv",
    "read_csv",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_samples_csv",
]


def _entry(d, key: str, what: str, form: str):
    """``d[key]``, or a ValueError naming the key ``what`` lacks and its form."""
    if not isinstance(d, dict) or key not in d:
        raise ValueError(f"{what} has no {key!r} key: expected {form}")
    return d[key]


def array_to_json(a: np.ndarray):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return {"re": a.real.tolist(), "im": a.imag.tolist()}
    return a.tolist()


def array_from_json(obj) -> np.ndarray:
    if isinstance(obj, dict):
        re, im = (_entry(obj, k, "complex array", "its re and im parts") for k in ("re", "im"))
        return np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    return np.asarray(obj, dtype=float)


def structure_to_dict(s: RepresentationStructure) -> dict:
    return {"field": s.field, "blocks": [list(b) for b in s.blocks]}


def structure_from_dict(d: dict) -> RepresentationStructure:
    blocks = _entry(d, "blocks", "structure", "a list of [n, r] pairs, such as [[8, 4], [3, 2]]")
    return RepresentationStructure(blocks, d.get("field", "real"))


def signal_to_dict(x: BlockSignal) -> dict:
    return {
        "structure": structure_to_dict(x.structure),
        "matrices": [array_to_json(m) for m in x.matrices],
    }


def signal_from_dict(d: dict) -> BlockSignal:
    s = structure_from_dict(_entry(d, "structure", "signal", "a structure object"))
    mats = _entry(d, "matrices", "signal", "one matrix per block")
    return BlockSignal(s, tuple(array_from_json(m) for m in mats))


def gram_to_dict(g: GramTuple) -> dict:
    return {
        "structure": structure_to_dict(g.structure),
        "grams": [array_to_json(m) for m in g.grams],
    }


def gram_from_dict(d: dict) -> GramTuple:
    s = structure_from_dict(_entry(d, "structure", "Gram tuple", "a structure object"))
    grams = _entry(d, "grams", "Gram tuple", "one r x r matrix per block")
    return GramTuple(s, tuple(array_from_json(m) for m in grams))


def prior_to_dict(p: PriorSpec) -> dict:
    if isinstance(p, LinearSubspacePrior):
        return {"variant": "linear_subspace", "basis": array_to_json(p.basis)}
    if isinstance(p, SparsityPrior):
        return {
            "variant": "sparsity",
            "k": p.k,
            "dictionary": None if p.dictionary is None else array_to_json(p.dictionary),
        }
    if isinstance(p, SupportPrior):
        return {"variant": "support", "mask": [bool(v) for v in p.mask]}
    raise TypeError(f"unknown prior type {type(p).__name__}")


def prior_from_dict(d: dict) -> PriorSpec:
    variant = _entry(d, "variant", "prior", "'linear_subspace', 'sparsity' or 'support'")
    what = f"{variant} prior"
    if variant == "linear_subspace":
        return LinearSubspacePrior(array_from_json(_entry(d, "basis", what, "a d x m matrix")))
    if variant == "sparsity":
        dico = d.get("dictionary")
        k = _entry(d, "k", what, "the number of nonzero coefficients")
        return SparsityPrior(k, None if dico is None else array_from_json(dico))
    if variant == "support":
        return SupportPrior(np.asarray(_entry(d, "mask", what, "a list of d booleans"), dtype=bool))
    raise ValueError(f"unknown prior variant {variant!r}")


def solve_report_to_dict(r: SolveReport) -> dict:
    return {
        "iterations_used": r.iterations_used,
        "converged": r.converged,
        "residual_final": r.residual_final,
        "oracle_error": r.oracle_error,
        "residual_trajectory": r.residual_trajectory,
        "estimate": signal_to_dict(r.estimate),
    }


def save_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path):
    return json.loads(Path(path).read_text())


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write_table(path, fieldnames, cells, comments) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(fieldnames))
    lines.extend(",".join(row) for row in cells)
    Path(path).write_text("\n".join(lines) + "\n")


def write_csv(path, fieldnames, rows, comments=()) -> None:
    """Comma-separated with a header row; comments become leading ``#`` lines."""
    _write_table(path, fieldnames, ([_fmt(row[k]) for k in fieldnames] for row in rows), comments)


def read_csv(path) -> tuple[list[str], list[list[str]], list[str]]:
    """Returns (fieldnames, rows-as-strings, comment lines)."""
    comments = []
    header = None
    rows = []
    for line in Path(path).read_text().splitlines():
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: no header row found")
    return header, rows, comments


def write_matrix_csv(path, matrix, comments=()) -> None:
    """Row-major matrix dump; complex matrices get ``_re``/``_im`` columns."""
    m = np.atleast_2d(np.asarray(matrix))
    if np.iscomplexobj(m):
        names = [f"c{j}_{p}" for j in range(m.shape[1]) for p in ("re", "im")]
        cells = (
            [repr(v) for z in row for v in (z.real, z.imag)]
            for row in m.astype(complex).tolist()
        )
    else:
        names = [f"c{j}" for j in range(m.shape[1])]
        cells = ([repr(v) for v in row] for row in m.astype(float).tolist())
    _write_table(path, names, cells, comments)


def read_matrix_csv(path) -> np.ndarray:
    header, rows, _ = read_csv(path)
    data = np.array([[float(v) for v in row] for row in rows]).reshape(len(rows), len(header))
    if header and header[0].endswith("_re"):
        return data.view(complex)  # re/im pairs, bitwise: no arithmetic on nan or -0.0
    return data


def write_samples_csv(path, samples: MraSampleSet, comments=()) -> None:
    meta = [
        f"structure={json.dumps(structure_to_dict(samples.structure))}",
        f"sigma={samples.sigma!r}",
        f"n={samples.n}",
        f"master_seed={samples.master_seed}",
    ]
    write_matrix_csv(path, samples.observations, tuple(comments) + tuple(meta))
