"""Command-line front end.

Loads operators, kernel families and phase-space tables from JSON, runs the
checkers/classifiers, and writes a machine-readable report that embeds the
full run configuration.  Exit codes: 0 = classified/passed, 1 = axiom
violation or classification rejection (the report carries the witness or
error), 2 = I/O or schema problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import convhom, exchange, intertwine, jsonio, torus, twisted
from .errors import ClassificationError, ConvalgError, SchemaError
from .groups import Group
from .operators import DEFAULT_TOL, Operator, check_conv_homomorphism

TWISTED_DEFAULT_TOL = 5e-2


@dataclass(frozen=True)
class RunConfig:
    command: str
    input: Optional[str] = None
    output: Optional[str] = None
    n: Optional[int] = None
    tol: float = DEFAULT_TOL
    seed: int = 0
    unitary: bool = False
    mode: str = "basis"
    samples: int = 64
    variant: str = "direct"
    grid_S: int = 64
    grid_L: float = 4.0


def _load_operator(cfg: RunConfig) -> Operator:
    if not cfg.input:
        raise SchemaError("this command needs --input", "$")
    T = jsonio.operator_from_json(jsonio.load(cfg.input))
    if cfg.n is not None and T.group.order != cfg.n:
        raise SchemaError(f"operator order {T.group.order} != --n {cfg.n}", "$.group")
    if cfg.unitary:
        T = Operator.from_table(T.group, T.table / np.sqrt(T.group.order))
    return T


def _run_command(cfg: RunConfig) -> tuple[dict, bool]:
    """Returns (result payload, passed flag)."""
    if cfg.command == "classify-conv":
        cls = convhom.classify(_load_operator(cfg), cfg.tol)
        return jsonio.conv_classification_to_json(cls), True

    if cfg.command == "check-axioms":
        report = check_conv_homomorphism(_load_operator(cfg), cfg.mode,
                                         count=cfg.samples, seed=cfg.seed,
                                         tol=cfg.tol)
        return jsonio.axiom_report_to_json(report), report.passed

    if cfg.command == "classify-exchange":
        T = _load_operator(cfg)
        fn = (exchange.classify_fourier_exchange if cfg.variant == "fourier"
              else exchange.classify_exchange)
        cls = fn(T, cfg.tol, seed=cfg.seed)
        return jsonio.exchange_classification_to_json(cls), True

    if cfg.command == "classify-intertwiner":
        cls = intertwine.classify_intertwiner(_load_operator(cfg), cfg.tol)
        return jsonio.intertwiner_classification_to_json(cls), True

    if cfg.command == "classify-torus":
        if not cfg.input:
            raise SchemaError("classify-torus needs --input", "$")
        family = jsonio.kernel_family_from_json(jsonio.load(cfg.input))
        cls = torus.classify_torus_operator(family, cfg.tol)
        return jsonio.torus_classification_to_json(cls), True

    if cfg.command == "verify-twisted":
        if cfg.input:
            f, g = jsonio.pair_from_json(jsonio.load(cfg.input))
        else:
            grid = twisted.PlaneGrid(cfg.grid_L, cfg.grid_S)
            f = g = twisted.gaussian_pair(grid)
        report = twisted.verify_rho_homomorphism(f, g)
        payload = {"relative_error": report.relative_error,
                   "truncation_diagnostic": {"f": report.truncation_f,
                                             "g": report.truncation_g},
                   "phases_resolved": report.phases_resolved}
        return payload, report.relative_error <= cfg.tol

    if cfg.command == "construct":
        if not cfg.input:
            raise SchemaError("construct needs --input", "$")
        params = jsonio.construct_params_from_json(jsonio.load(cfg.input))
        if cfg.n is not None and params["n"] != cfg.n:
            raise SchemaError(f"parameter n {params['n']} != --n {cfg.n}", "$.n")
        group = Group(params["n"])
        if params["kind"] == "conv":
            T = convhom.construct(group, params["support"], params["sigma"])
        else:
            T = intertwine.construct_intertwiner(group, params["k0"], params["m0"],
                                                 params["m1"], params["c"])
        return jsonio.operator_to_json(T), True

    raise SchemaError(f"unknown command {cfg.command!r}", "$")


def _emit(cfg: RunConfig, report: dict) -> None:
    if cfg.command == "construct" and report.get("result") is not None:
        # the constructed operator document is the deliverable, usable as
        # --input for the other commands
        doc = report["result"]
    else:
        doc = {"schema": jsonio.SCHEMA_VERSION, "config": asdict(cfg), **report}
    if cfg.output:
        jsonio.dump(doc, cfg.output)
    else:
        # serialized in full first, so a NaN leaves stdout empty
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convalg",
        description="Classify operators on finite cyclic groups into their "
                    "canonical transform forms, or report a concrete violation.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "classify-conv": "recover (support, sigma) of a convolution-to-product homomorphism",
        "classify-exchange": "recover (eta, conjugation) of a two-product exchange map",
        "classify-intertwiner": "recover (k0, m0, m1, c) of a translation/modulation intertwiner",
        "classify-torus": "recover (support, frequency map) of a circle-grid kernel operator",
        "verify-twisted": "measure the twisted-convolution representation identity",
        "check-axioms": "run the convolution-homomorphism axiom check",
        "construct": "build an operator table from canonical parameters",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="input JSON path")
        p.add_argument("--output", help="report JSON path (default: stdout)")
        p.add_argument("--n", type=int, help="expected group order (validated)")
        default_tol = TWISTED_DEFAULT_TOL if name == "verify-twisted" else DEFAULT_TOL
        p.add_argument("--tol", type=float, default=default_tol,
                       help=f"tolerance (default {default_tol:g})")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--unitary", action="store_true",
                       help="pre-scale the loaded operator by 1/sqrt(n)")
        if name == "check-axioms":
            p.add_argument("--mode", choices=("basis", "sampled"), default="basis")
            p.add_argument("--samples", type=int, default=64)
        if name == "classify-exchange":
            p.add_argument("--variant", choices=("direct", "fourier"),
                           default="direct")
        if name == "verify-twisted":
            p.add_argument("--grid-S", type=int, default=64, dest="grid_S")
            p.add_argument("--grid-L", type=float, default=4.0, dest="grid_L")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fields = {k: v for k, v in vars(args).items() if v is not None}
    cfg = RunConfig(**fields)
    if cfg.tol <= 0:
        print("error: --tol must be positive", file=sys.stderr)
        return 2
    if cfg.n is not None and cfg.n < 1:
        print("error: --n must be >= 1", file=sys.stderr)
        return 2
    if cfg.mode == "sampled" and cfg.samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return 2
    try:
        result, passed = _run_command(cfg)
        report, code = {"result": result, "error": None}, 0 if passed else 1
    except ClassificationError as exc:
        report, code = {"result": None,
                        "error": {"type": type(exc).__name__, "message": str(exc),
                                  "details": {k: jsonio.report_value_to_json(v)
                                              for k, v in exc.details.items()}}}, 1
    except (ConvalgError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(cfg, report)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # strict JSON refuses the NaN residual of products that overflowed
        source = f"--input {cfg.input}" if cfg.input else "the input"
        print(f"error: {source} is too large to check ({exc})", file=sys.stderr)
        return 2
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
