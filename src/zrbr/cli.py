"""Command-line driver.

Exit codes: 0 success, 2 validation error, 3 divergence, 4 property cap
exceeded.  All floating-point output is deterministic for a fixed
(config, seed); wall-clock timing goes to stdout only.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .errors import ConfigurationError, ContractViolationError, DivergenceError, PreconditionError
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


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("epsilon-scaling", help="existence-time proxy vs epsilon sweep")
    p.add_argument("--eps", type=float, nargs="+", required=True,
                   help="descending list of epsilon values")

    p = sub.add_parser("region", help="admissible-exponent region scan export")
    p.add_argument("--d", type=int, choices=(2, 3), required=True)
    p.add_argument("--resolution", type=float, default=1e-3)

    p = sub.add_parser("fuzz", help="randomized checks of the elementary inequalities")
    p.add_argument("--n", type=int, default=10**6, help="samples per inequality branch")

    p = sub.add_parser("picard", help="fixed-point contraction table")
    p.add_argument("--T", type=float, nargs="+", default=[0.1])
    p.add_argument("--iters", type=int, default=6)
    p.add_argument("--n-time", type=int, default=64)

    p = sub.add_parser("norms", help="space-time norm panel for a synthetic field")
    p.add_argument("--recipe", default="cutoff-free")
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.6)
    p.add_argument("--dispersion", default="schrodinger")

    return parser


def _need_config(args):
    if not args.config:
        raise ConfigurationError(f"{args.command} requires --config")
    return load_config(args.config, seed_override=args.seed)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {args.seed}")
        if args.command == "simulate":
            config, echo = _need_config(args)
            code, _ = cmd_simulate(config, echo, args.out, snapshots=args.snapshots)
        elif args.command == "epsilon-scaling":
            config, echo = _need_config(args)
            code, _ = cmd_epsilon_scaling(config, echo, args.eps, args.out)
        elif args.command == "region":
            code, _ = cmd_region(args.d, args.resolution, args.out)
        elif args.command == "fuzz":
            seed = args.seed if args.seed is not None else 0
            code, _ = cmd_fuzz(args.n, seed, args.out)
        elif args.command == "picard":
            config, echo = _need_config(args)
            code, _ = cmd_picard(config, echo, args.T, args.iters, args.out,
                                 n_time=args.n_time)
        elif args.command == "norms":
            seed = args.seed if args.seed is not None else 0
            code, _ = cmd_norms(args.recipe, args.s, args.b, args.dispersion,
                                seed, args.out)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigurationError(f"unknown command {args.command!r}")
    except (ConfigurationError, ContractViolationError, PreconditionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    print(f"{args.command}: exit {code}, wall time {time.time() - t0:.2f} s")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
