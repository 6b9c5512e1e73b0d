"""Command-line driver.

Exit codes: 0 success, 2 validation error, 3 divergence, 4 property cap
exceeded.  All floating-point output is deterministic for a fixed
(config, seed); wall-clock timing goes to stdout only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .errors import ConfigurationError, DivergenceError, ZRBRError
from .harness import (
    EXIT_DIVERGENCE,
    EXIT_VALIDATION,
    cmd_epsilon_scaling,
    cmd_fuzz,
    cmd_norms,
    cmd_picard,
    cmd_region,
    cmd_simulate,
    load_config,
)


def _config(args):
    """(SimConfig, echo) from --config, with --seed applied."""
    if not args.config:
        raise ConfigurationError(f"{args.command} requires --config")
    return load_config(args.config, seed_override=args.seed)


def _check_out(out: str):
    """A ConfigurationError when --out is, or lies under, an existing path
    that is not a directory: refused before any command runs."""
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigurationError(f"output path {out} is not a directory")


def build_parser() -> argparse.ArgumentParser:
    """The zrbr parser; each subcommand sets `run`, which takes the parsed
    arguments and returns (exit code, report)."""
    parser = argparse.ArgumentParser(
        prog="zrbr",
        description="Envelope-acoustic simulator and dispersive-estimate checks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", metavar="PATH", help="JSON run configuration")
    parser.add_argument("--seed", type=int, metavar="U64", help="master seed override")
    parser.add_argument("--out", default="out", metavar="DIR", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="split-step run with diagnostics CSV")
    p.add_argument("--snapshots", action="store_true", help="write binary state dumps")
    p.set_defaults(run=lambda a: cmd_simulate(*_config(a), a.out, snapshots=a.snapshots))

    p = sub.add_parser("epsilon-scaling", help="existence-time proxy vs epsilon sweep")
    p.add_argument("--eps", type=float, nargs="+", required=True,
                   help="descending list of epsilon values")
    p.set_defaults(run=lambda a: cmd_epsilon_scaling(*_config(a), a.eps, a.out))

    p = sub.add_parser("region", help="admissible-exponent region scan export")
    p.add_argument("--d", type=int, choices=(2, 3), required=True)
    p.add_argument("--resolution", type=float, default=1e-3)
    p.set_defaults(run=lambda a: cmd_region(a.d, a.resolution, a.out))

    p = sub.add_parser("fuzz", help="randomized checks of the elementary inequalities")
    p.add_argument("--n", type=int, default=10**6, help="samples per inequality branch")
    p.set_defaults(run=lambda a: cmd_fuzz(a.n, a.seed or 0, a.out))

    p = sub.add_parser("picard", help="fixed-point contraction table")
    p.add_argument("--T", type=float, nargs="+", default=[0.1])
    p.add_argument("--iters", type=int, default=6)
    p.add_argument("--n-time", type=int, default=64)
    p.set_defaults(run=lambda a: cmd_picard(*_config(a), a.T, a.iters, a.out,
                                            n_time=a.n_time))

    p = sub.add_parser("norms", help="space-time norm panel for a synthetic field")
    p.add_argument("--recipe", default="cutoff-free")
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.6)
    p.add_argument("--dispersion", default="schrodinger")
    p.set_defaults(run=lambda a: cmd_norms(a.recipe, a.s, a.b, a.dispersion, a.seed or 0,
                                           a.out))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {args.seed}")
        _check_out(args.out)
        code, _ = args.run(args)
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ZRBRError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"{args.command}: exit {code}, wall time {time.time() - t0:.2f} s")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
