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


# config-file keys and flag names that differ from their ExperimentConfig
# field; ``K``, ``sigma`` and ``structure`` are mapped by ``_config``
_RENAMES = {
    "seed": "master_seed",
    "grid_res": "grid_resolution",
    "n": "n_samples",
    "gram": "gram_file",
    "prior": "prior_file",
}
_KEYS = frozenset({
    "structure", "K", "sigma", "trials", "algorithm", "beta", "max_iters", "tol",
    "out", "paper_scale", "workers", "exclude_tol", "action", *_RENAMES,
})


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--structure", help="block structure, e.g. 8x4 or cyclic:16")
    p.add_argument("--K", type=_int_list, help="subspace dimension(s), comma separated")
    p.add_argument("--sigma", type=_float_list, help="noise level(s), comma separated")
    p.add_argument("--trials", type=int, help="trials / points / pairs per sweep value")
    p.add_argument("--seed", type=int, help="master seed")
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
    p.add_argument("--workers", type=int, help="process pool size")


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


def _values(value) -> tuple:
    return tuple(value) if isinstance(value, (tuple, list)) else (value,)


def _single(value, what: str):
    values = _values(value)
    if len(values) != 1:
        raise ValueError(f"{what} takes a single value here, got {value}")
    return values[0]


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file overlaid with the flags given; everything else is
    left to the ExperimentConfig defaults."""
    given = load_json(args.config) if args.config else {}
    unknown = set(given) - _KEYS
    if unknown:
        raise ValueError(f"unknown config file keys: {sorted(unknown)}")
    for key in _KEYS:
        if getattr(args, key, None) is not None:
            given[key] = getattr(args, key)
    k = given.pop("K", None)
    sigma = given.pop("sigma", None)
    kwargs = {_RENAMES.get(key, key): value for key, value in given.items()}
    if isinstance(kwargs.get("structure"), str):
        kwargs["structure"] = parse_structure(kwargs["structure"])
    elif "structure" in kwargs:
        kwargs["structure"] = structure_from_dict(kwargs["structure"])
    if k is not None:
        if args.command == "exp-iterations":
            kwargs["k_values"] = _values(k)
        else:
            kwargs["subspace_dim"] = _single(k, "--K")
    if sigma is not None:
        if args.command == "exp-noise":
            kwargs["sigma_values"] = _values(sigma)
        elif args.command != "exp-iterations":
            kwargs["sigma"] = _single(sigma, "--sigma")
    return ExperimentConfig(experiment=args.command, **kwargs)


# per subcommand, its runner and the summary line printed per result row
_COMMANDS = {
    "simulate": (run_simulate, "simulated n={n} observations; "
                 "moment error {moment_error:.3e}; wrote {out}"),
    "solve": (run_demo_solve, "converged={converged} iterations={iterations_used} "
              "residual={residual_final:.3e}"),
    "exp-iterations": (run_iterations_vs_k, "K={K} median_iterations={median_iterations} "
                       "convergence_rate={convergence_rate:.3f}"),
    "exp-noise": (run_error_vs_noise, "sigma={sigma:g} median_error={median_error:.3e} "
                  "convergence_rate={convergence_rate:.3f}"),
    "transversality": (run_transversality, "worst_margin={worst_margin:.6f} "
                       "violations={num_violations} (threshold {threshold:.6f})"),
    "bilipschitz": (run_bilipschitz, "alpha_lower={alpha_lower:.6f} "
                    "beta_upper={beta_upper:.6f} pairs={pairs_sampled}"),
}


def main(argv=None) -> int:
    """Run one subcommand; exit 1 on bad input, 2 on an unconverged solve."""
    args = _build_parser().parse_args(argv)
    runner, summary = _COMMANDS[args.command]
    try:
        result = runner(_config(args))
        for row in result if isinstance(result, list) else [result]:
            print(summary.format_map(row if isinstance(row, dict) else vars(row)))
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc.filename or exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, KeyError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if args.command == "solve" and not result.converged else 0


if __name__ == "__main__":
    sys.exit(main())
