"""Command-line interface.

Subcommands: ``simulate``, ``solve``, ``exp-iterations``, ``exp-noise``,
``transversality``, ``bilipschitz``.  Each takes only the flags its runner
reads, as listed in ``_COMMANDS``; any of them can also live in a JSON
config file passed with ``--config``, and explicit flags override the
file.  A config-file value must have the JSON type its flag parses to
(``null`` leaves the key unset).  A flag or config-file key the
subcommand does not read is an error, reported by the subcommand's own
parser for a flag, as are ``structure``, ``K`` and ``sigma`` on a solve
from ``--gram``/``--prior``.

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
    DESK_TRIALS,
    PAPER_TRIALS,
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
        if len(parts) > 3:
            raise ValueError(f"cyclic structures are cyclic:N or cyclic:N:FIELD, got {text!r}")
        try:
            n = int(parts[1])
        except ValueError:
            n = parts[1]  # refused by name in cyclic_structure
        fld = parts[2] if len(parts) > 2 else "real"
        return cyclic_structure(n, fld)
    fld = "real"
    if ":" in text:
        text, fld = text.rsplit(":", 1)
    if text.startswith("["):
        return RepresentationStructure(json.loads(text), fld)
    return RepresentationStructure([part.split("x") for part in text.split(",")], fld)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# config-file keys and flag names that differ from their ExperimentConfig
# field, and the sweeps that take ``K`` or ``sigma`` as a list of values
_RENAMES = {
    "K": "subspace_dim",
    "seed": "master_seed",
    "grid_res": "grid_resolution",
    "n": "n_samples",
    "gram": "gram_file",
    "prior": "prior_file",
}
_SWEEPS = {("exp-iterations", "K"): "k_values", ("exp-noise", "sigma"): "sigma_values"}

# argparse options per flag, keyed by its config-file name; the flag is
# spelled ``"--" + name.replace("_", "-")``
_FLAGS = {
    "structure": dict(help="block structure, e.g. 8x4 or cyclic:16"),
    "K": dict(type=_int_list, help="subspace dimension(s), comma separated"),
    "sigma": dict(type=_float_list, help="noise level(s), comma separated"),
    "trials": dict(type=int, help="trials / points / pairs per sweep value"),
    "seed": dict(type=int, help="master seed"),
    "algorithm": dict(choices=["ap", "rrr"], help="solver variant"),
    "beta": dict(type=float, help="relaxation step for rrr"),
    "max_iters": dict(type=int, help="iteration cap"),
    "tol": dict(type=float, help="stopping tolerance"),
    "out": dict(help="output CSV path (experiments) or directory"),
    "paper_scale": dict(action="store_const", const=True,
                        help=f"{PAPER_TRIALS:,} trials instead of {DESK_TRIALS}"),
    "n": dict(type=int, help="number of observations"),
    "action": dict(choices=["full", "cyclic"], help="group action kind"),
    "gram": dict(help="JSON file with the measured Gram tuple"),
    "prior": dict(help="JSON file with the prior"),
    "grid_res": dict(type=int, help="angles per O(2) block"),
    "exclude_tol": dict(type=float, help="radius around +-x excluded from the margin search"),
}

# per subcommand: its runner, its help, the flags (config-file keys) the
# runner reads, and the summary line printed per result row; a result that
# names the directory it wrote (simulate with --out) adds "; wrote DIR"
_COMMANDS = {
    "simulate": (
        run_simulate, "sample observations and estimate moments",
        "structure sigma seed out n action",
        "simulated n={n} observations; moment error {moment_error:.3e}"),
    "solve": (
        run_demo_solve, "solve one instance from files, or a random one without them",
        "structure K sigma seed algorithm beta max_iters tol out gram prior",
        "converged={converged} iterations={iterations_used} residual={residual_final:.3e}"),
    "exp-iterations": (
        run_iterations_vs_k, "median iterations vs subspace dimension",
        "structure K trials seed algorithm beta max_iters tol out paper_scale",
        "K={K} median_iterations={median_iterations} convergence_rate={convergence_rate:.3f}"),
    "exp-noise": (
        run_error_vs_noise, "median recovery error vs noise level",
        "structure K sigma trials seed algorithm beta max_iters tol out paper_scale",
        "sigma={sigma:g} median_error={median_error:.3e} "
        "convergence_rate={convergence_rate:.3f}"),
    "transversality": (
        run_transversality, "orbit-intersection grid check",
        "structure K trials seed out grid_res exclude_tol",
        "worst_margin={worst_margin:.6f} violations={num_violations} "
        "(threshold {threshold:.6f})"),
    "bilipschitz": (
        run_bilipschitz, "distortion bounds of the measurement map",
        "structure K trials seed out",
        "alpha_lower={alpha_lower:.6f} beta_upper={beta_upper:.6f} pairs={pairs_sampled}"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramphase", description="signal recovery from per-block Gram measurements"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_, flags, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        p.set_defaults(parser=p)  # so that an unknown flag is reported by its subcommand
        p.add_argument("--config", help="JSON file with defaults for any flag")
        for name in flags.split():
            p.add_argument("--" + name.replace("_", "-"), dest=name, **_FLAGS[name])
    return parser


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _one_or_list(check):
    return lambda value: check(value) or (isinstance(value, list) and all(map(check, value)))


# per argparse type of a flag, how its config-file value is checked
_CONFIG_TYPES = {
    int: (_is_int, "an integer"),
    float: (_is_number, "a number"),
    _int_list: (_one_or_list(_is_int), "an integer or a list of integers"),
    _float_list: (_one_or_list(_is_number), "a number or a list of numbers"),
    str: (lambda value: isinstance(value, str), "a string"),
}


def _check_config_value(key: str, value) -> None:
    """Refuse a config-file value of the wrong JSON type, naming the key."""
    options = _FLAGS[key]
    if key == "structure":
        ok, expected = isinstance(value, (str, dict)), "a string or an object"
    elif options.get("action") == "store_const":
        ok, expected = isinstance(value, bool), "true or false"
    else:
        check, expected = _CONFIG_TYPES[options.get("type", str)]
        ok = check(value)
    if not ok:
        raise ValueError(f"config file key {key!r} must be {expected}, got {value!r}")


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
    flags = _COMMANDS[args.command][2].split()
    given = load_json(args.config) if args.config else {}
    if not isinstance(given, dict):
        raise ValueError(f"config file must hold a JSON object, got {type(given).__name__}")
    given = {key: value for key, value in given.items() if value is not None}
    unread = set(given) - set(flags)
    if unread:
        raise ValueError(f"config file keys {args.command} does not read: {sorted(unread)}")
    for key, value in given.items():
        _check_config_value(key, value)
    given.update({key: getattr(args, key) for key in flags if getattr(args, key) is not None})
    generated = [key for key in ("structure", "K", "sigma") if key in given]
    if generated and (given.get("gram") or given.get("prior")):
        raise ValueError(f"a solve from --gram/--prior takes no {', '.join(generated)}: "
                         "they describe a generated instance")
    kwargs = {}
    for key, value in given.items():
        sweep = _SWEEPS.get((args.command, key))
        if sweep:
            kwargs[sweep] = _values(value)
        elif key in ("K", "sigma"):
            kwargs[_RENAMES.get(key, key)] = _single(value, "--" + key)
        elif key == "structure":
            parse = parse_structure if isinstance(value, str) else structure_from_dict
            kwargs[key] = parse(value)
        else:
            kwargs[_RENAMES.get(key, key)] = value
    return ExperimentConfig(experiment=args.command, **kwargs)


def main(argv=None) -> int:
    """Run one subcommand; exit 1 on bad input, 2 on an unconverged solve."""
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    runner, _, _, summary = _COMMANDS[args.command]
    try:
        result = runner(_config(args))
        for row in result if isinstance(result, list) else [result]:
            row = row if isinstance(row, dict) else vars(row)
            print(summary.format_map(row) + (f"; wrote {row['out']}" if row.get("out") else ""))
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc.filename or exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, KeyError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if args.command == "solve" and not result.converged else 0


if __name__ == "__main__":
    sys.exit(main())
