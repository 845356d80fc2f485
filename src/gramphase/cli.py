"""Command-line interface.

Subcommands: ``simulate``, ``solve``, ``exp-iterations``, ``exp-noise``,
``transversality``, ``bilipschitz``.  Every flag can also live in a JSON
config file passed with ``--config``; explicit flags override the file.

Structures are given as ``8x4`` (blocks, real field), ``8x4,3x2:complex``,
``cyclic:16`` / ``cyclic:16:complex``, or inline JSON like
``{"field": "real", "blocks": [[8, 4]]}``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .blocks import RepresentationStructure, cyclic_structure
from .experiments import (
    ExperimentConfig,
    run_bilipschitz,
    run_demo_solve,
    run_error_vs_noise,
    run_iterations_vs_k,
    run_simulate,
    run_transversality,
)
from .serialize import load_json, structure_from_dict

__all__ = ["main", "parse_structure"]


def parse_structure(text: str) -> RepresentationStructure:
    text = text.strip()
    if text.startswith("{"):
        return structure_from_dict(json.loads(text))
    if text.startswith("cyclic:"):
        parts = text.split(":")
        n = int(parts[1])
        fld = parts[2] if len(parts) > 2 else "real"
        return cyclic_structure(n, fld)
    fld = "real"
    if ":" in text:
        text, fld = text.rsplit(":", 1)
    if text.startswith("["):
        blocks = tuple((int(n), int(r)) for n, r in json.loads(text))
        return RepresentationStructure(blocks, fld)
    blocks = []
    for part in text.split(","):
        n, _, r = part.partition("x")
        blocks.append((int(n), int(r)))
    return RepresentationStructure(tuple(blocks), fld)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# flag -> (parser, default) ; None defaults mean "fall back to config file,
# then to this table's resolved default"
_DEFAULTS = {
    "structure": "8x4",
    "K": None,
    "sigma": None,
    "trials": None,
    "seed": 0,
    "algorithm": "ap",
    "beta": 0.5,
    "max_iters": 1000,
    "tol": 1e-6,
    "out": None,
    "paper_scale": False,
    "workers": 1,
    "grid_res": 512,
    "exclude_tol": 0.5,
    "n": 1000,
    "action": "full",
    "gram": None,
    "prior": None,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--structure", help="block structure, e.g. 8x4 or cyclic:16")
    p.add_argument("--K", type=_int_list, help="subspace dimension(s), comma separated")
    p.add_argument("--sigma", type=_float_list, help="noise level(s), comma separated")
    p.add_argument("--trials", type=int, help="trials / points / pairs per sweep value")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--algorithm", choices=["ap", "rrr"], help="solver variant")
    p.add_argument("--beta", type=float, help="relaxation step for rrr")
    p.add_argument("--max-iters", dest="max_iters", type=int, help="iteration cap")
    p.add_argument("--tol", type=float, help="stopping tolerance")
    p.add_argument("--out", help="output CSV path (experiments) or directory")
    p.add_argument(
        "--paper-scale",
        dest="paper_scale",
        action="store_const",
        const=True,
        help="use 10,000 trials instead of the desk-scale default",
    )
    p.add_argument("--workers", type=int, help="process pool size (default 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramphase",
        description="signal recovery from per-block Gram measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample observations and estimate moments")
    _add_common(p)
    p.add_argument("--n", type=int, help="number of observations")
    p.add_argument("--action", choices=["full", "cyclic"], help="group action kind")

    p = sub.add_parser(
        "solve", help="solve one instance from files, or a random one without them"
    )
    _add_common(p)
    p.add_argument("--gram", help="JSON file with the measured Gram tuple")
    p.add_argument("--prior", help="JSON file with the prior")

    p = sub.add_parser("exp-iterations", help="median iterations vs subspace dimension")
    _add_common(p)

    p = sub.add_parser("exp-noise", help="median recovery error vs noise level")
    _add_common(p)

    p = sub.add_parser("transversality", help="orbit-intersection grid check")
    _add_common(p)
    p.add_argument("--grid-res", dest="grid_res", type=int, help="angles per O(2) block")
    p.add_argument(
        "--exclude-tol",
        dest="exclude_tol",
        type=float,
        help="radius around +-x excluded from the margin search",
    )

    p = sub.add_parser("bilipschitz", help="distortion bounds of the measurement map")
    _add_common(p)
    return parser


def _merge(args: argparse.Namespace) -> dict:
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = load_json(args.config)
        unknown = set(file_cfg) - set(_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config file keys: {sorted(unknown)}")
    merged = {}
    for key, default in _DEFAULTS.items():
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
        elif key in file_cfg:
            merged[key] = file_cfg[key]
        else:
            merged[key] = default
    return merged


def _single(value, what: str):
    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        if len(value) != 1:
            raise ValueError(f"{what} takes a single value here, got {value}")
        return value[0]
    return value


def _to_config(command: str, merged: dict) -> ExperimentConfig:
    structure = merged["structure"]
    if isinstance(structure, str):
        structure = parse_structure(structure)
    else:
        structure = structure_from_dict(structure)
    k = merged["K"]
    sigma = merged["sigma"]
    cfg = ExperimentConfig(
        experiment=command,
        structure=structure,
        trials=merged["trials"],
        master_seed=merged["seed"],
        out=merged["out"],
        algorithm=merged["algorithm"],
        beta=merged["beta"],
        max_iters=merged["max_iters"],
        tol=merged["tol"],
        paper_scale=bool(merged["paper_scale"]),
        workers=merged["workers"],
        grid_resolution=merged["grid_res"],
        exclude_tol=merged["exclude_tol"],
        n_samples=merged["n"],
        action=merged["action"],
        gram_file=merged["gram"],
        prior_file=merged["prior"],
    )
    if command == "exp-iterations":
        if k is not None:
            cfg.k_values = tuple(k) if isinstance(k, (tuple, list)) else (k,)
    elif command == "exp-noise":
        if sigma is not None:
            cfg.sigma_values = tuple(sigma) if isinstance(sigma, (tuple, list)) else (sigma,)
        cfg.subspace_dim = _single(k, "--K")
    else:
        cfg.subspace_dim = _single(k, "--K")
        s = _single(sigma, "--sigma")
        if s is not None:
            cfg.sigma = s
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        merged = _merge(args)
        cfg = _to_config(args.command, merged)
        if args.command == "simulate":
            result = run_simulate(cfg)
            print(
                f"simulated n={result['n']} observations; "
                f"moment error {result['moment_error']:.3e}; wrote {result['out']}"
            )
        elif args.command == "solve":
            report = run_demo_solve(cfg)
            print(
                f"converged={report.converged} iterations={report.iterations_used} "
                f"residual={report.residual_final:.3e}"
            )
            if not report.converged:
                return 2
        elif args.command == "exp-iterations":
            for row in run_iterations_vs_k(cfg):
                print(
                    f"K={row['K']} median_iterations={row['median_iterations']} "
                    f"convergence_rate={row['convergence_rate']:.3f}"
                )
        elif args.command == "exp-noise":
            for row in run_error_vs_noise(cfg):
                print(
                    f"sigma={row['sigma']:g} median_error={row['median_error']:.3e} "
                    f"convergence_rate={row['convergence_rate']:.3f}"
                )
        elif args.command == "transversality":
            payload = run_transversality(cfg)
            print(
                f"worst_margin={payload['worst_margin']:.6f} "
                f"violations={payload['num_violations']} "
                f"(threshold {payload['threshold']:.6f})"
            )
        elif args.command == "bilipschitz":
            payload = run_bilipschitz(cfg)
            print(
                f"alpha_lower={payload['alpha_lower']:.6f} "
                f"beta_upper={payload['beta_upper']:.6f} "
                f"pairs={payload['pairs_sampled']}"
            )
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc.filename or exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, KeyError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
