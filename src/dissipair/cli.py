"""Command line front end.

Exit codes: 0 success, 2 configuration error, 3 numerical invariant
violation, 4 output failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .dynamics import liouvillian_from_params, steady_state
from .errors import CONFIG_ERRORS, NUMERIC_ERRORS, DegenerateSteadyStateError, IoError
from .experiments import parse_config, parse_sweep_config, run_experiment, run_figure, run_sweep
from .observables import collective_populations, concurrence, damping_forces, populations

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


def _cmd_evolve(args) -> None:
    config = parse_config(_read(args.config))
    print(f"wrote {run_experiment(config, args.out)}")


def _cmd_figure(args) -> None:
    print(f"wrote {run_figure(args.id, args.out)}")


def _cmd_sweep(args) -> None:
    print(f"wrote {run_sweep(parse_sweep_config(_read(args.config)), args.out)}")


def _cmd_steady(args) -> None:
    config = parse_config(_read(args.config))
    result = steady_state(liouvillian_from_params(config.model))
    print(f"unique: {'yes' if result.unique else 'no'}")
    print(f"spectral_gap: {_fmt(result.spectral_gap)}")
    if not result.unique:
        raise DegenerateSteadyStateError("the stationary manifold is degenerate: no unique steady state to report")
    p1, p2 = populations(result.state)
    print(f"P1: {_fmt(p1)}")
    print(f"P2: {_fmt(p2)}")
    print(f"concurrence: {_fmt(concurrence(result.state))}")
    coll = collective_populations(result.state)
    print(f"P_E: {_fmt(coll.P_E)}")
    print(f"P_plus: {_fmt(coll.P_plus)}")
    print(f"P_minus: {_fmt(coll.P_minus)}")
    print(f"P_G: {_fmt(coll.P_G)}")


def _cmd_isolation(args) -> None:
    report = damping_forces(args.J, args.Gamma, args.phi)
    print(f"F12 = {_fmt(report.F12)}")
    print(f"F21 = {_fmt(report.F21)}")
    print(f"delta_F = {_fmt(report.delta_F)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dissipair",
        description="Two-qubit exchange coupling balanced against phase-tunable collective decay",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    evolve = sub.add_parser("evolve", help="integrate one configured trajectory to CSV")
    evolve.add_argument("--config", required=True, help="path to key = value config")
    evolve.add_argument("--out", default=".", help="output directory")
    evolve.set_defaults(func=_cmd_evolve)

    figure = sub.add_parser("figure", help="write a named preset dataset")
    figure.add_argument("id", help="preset id, e.g. 2a or 6c")
    figure.add_argument("--out", default=".", help="output directory")
    figure.set_defaults(func=_cmd_figure)

    sweep = sub.add_parser("sweep", help="evaluate an observable over a parameter grid")
    sweep.add_argument("--config", required=True, help="path to sweep config")
    sweep.add_argument("--out", default=".", help="output directory")
    sweep.set_defaults(func=_cmd_sweep)

    steady = sub.add_parser("steady", help="report the stationary state of a configured model")
    steady.add_argument("--config", required=True, help="path to key = value config")
    steady.set_defaults(func=_cmd_steady)

    isolation = sub.add_parser("isolation", help="print directional damping forces")
    isolation.add_argument("--J", type=float, required=True, help="exchange amplitude")
    isolation.add_argument("--Gamma", type=float, required=True, help="collective decay rate")
    isolation.add_argument("--phi", type=float, required=True, help="channel phase")
    isolation.set_defaults(func=_cmd_isolation)

    return parser


_parser = functools.cache(build_parser)  # built by the first command, not at import; parsing leaves it unchanged


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (*NUMERIC_ERRORS, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IoError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
