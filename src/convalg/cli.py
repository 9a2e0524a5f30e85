"""Command-line front end.

Loads JSON inputs, runs the checkers/classifiers, and writes a report that
embeds the full run configuration.  COMMANDS declares each command once,
with exactly the options it reads.  Exit codes: 0 = classified/passed, 1 =
axiom violation or classification rejection (the report carries the witness
or error), 2 = usage, I/O or schema problems (one `error:` line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import convhom, exchange, intertwine, jsonio, torus, twisted
from .errors import ClassificationError, ConvalgError, SchemaError
from .groups import Group
from .operators import DEFAULT_TOL, Operator, check_conv_homomorphism

MAX_TABLE_BYTES = 1 << 30   # what a command may hold at its peak, in complex tables (1 GiB)
TWISTED_TABLES = 12         # S x S tables verify-twisted holds at its peak (S = 64, 128)
CONSTRUCT_TABLES = 29       # n x n tables construct holds at its peak: the report to
                            # stdout, the larger sink (n = 256, 512)


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
    T = jsonio.operator_from_json(jsonio.load(cfg.input))
    if cfg.n is not None and T.group.order != cfg.n:
        raise SchemaError(f"operator order {T.group.order} != --n {cfg.n}", "$.group")
    if cfg.unitary:
        T = Operator.from_table(T.group, T.table / np.sqrt(T.group.order))
    return T


def _check_axioms(cfg: RunConfig):
    report = check_conv_homomorphism(_load_operator(cfg), cfg.mode, count=cfg.samples,
                                     seed=cfg.seed, tol=cfg.tol)
    return jsonio.report_value_to_json(report), report.passed


def _classify_exchange(cfg: RunConfig):
    fn = (exchange.classify_fourier_exchange if cfg.variant == "fourier"
          else exchange.classify_exchange)
    return jsonio.report_value_to_json(fn(_load_operator(cfg), cfg.tol, seed=cfg.seed)), True


def _verify_twisted(cfg: RunConfig):
    if cfg.input:
        f, g = jsonio.pair_from_json(jsonio.load(cfg.input))
    elif TWISTED_TABLES * 16 * cfg.grid_S ** 2 > MAX_TABLE_BYTES:
        raise ValueError(f"--grid-S {cfg.grid_S} would allocate more than MAX_TABLE_BYTES")
    else:
        f = g = twisted.gaussian_pair(twisted.PlaneGrid(cfg.grid_L, cfg.grid_S))
    report = twisted.verify_rho_homomorphism(f, g)
    payload = {"relative_error": report.relative_error,
               "truncation_diagnostic": {"f": report.truncation_f,
                                         "g": report.truncation_g},
               "phases_resolved": report.phases_resolved}
    return payload, report.relative_error <= cfg.tol


def _construct(cfg: RunConfig):
    params = jsonio.construct_params_from_json(jsonio.load(cfg.input))
    if cfg.n is not None and params["n"] != cfg.n:
        raise SchemaError(f"parameter n {params['n']} != --n {cfg.n}", "$.n")
    group = Group(params["n"])
    if CONSTRUCT_TABLES * 16 * group.n ** 2 > MAX_TABLE_BYTES:
        raise ValueError(f"order {group.n} would allocate more than MAX_TABLE_BYTES")
    if params["kind"] == "conv":
        T = convhom.construct(group, params["support"], params["sigma"])
    else:
        T = intertwine.construct_intertwiner(group, params["k0"], params["m0"],
                                             params["m1"], params["c"])
    return jsonio.operator_to_json(T), True


# A command's help, its runner, the options it reads besides --input and
# --output, whether it needs --input, whether its report is the result alone
# (construct's operator, usable as --input) and its default --tol.  A runner
# returns (result payload, passed flag) and looks library functions up when it
# runs, so that a function patched in its module is the one run.
Command = namedtuple("Command", "help run options needs_input bare_report tol",
                     defaults=(True, False, RunConfig.tol))

# argparse keywords per option; the default is the command's RunConfig value
OPTIONS = {
    "--input": {"help": "input JSON path"},
    "--output": {"help": "report JSON path (default: stdout)"},
    "--n": {"type": int, "help": "expected group order (validated)"},
    "--tol": {"type": float, "help": "tolerance (default %(default)g)"},
    "--unitary": {"action": "store_true",
                  "help": "pre-scale the loaded operator by 1/sqrt(n)"},
    "--seed": {"type": int}, "--samples": {"type": int}, "--grid-S": {"type": int},
    "--grid-L": {"type": float}, "--mode": {"choices": ("basis", "sampled")},
    "--variant": {"choices": ("direct", "fourier")},
}
OPERATOR = ("--n", "--tol", "--unitary")     # read by _load_operator and the classifier

COMMANDS = {
    "classify-conv": Command(
        "recover (support, sigma) of a convolution-to-product homomorphism",
        lambda cfg: (jsonio.report_value_to_json(
            convhom.classify(_load_operator(cfg), cfg.tol)), True), OPERATOR),
    "classify-exchange": Command(
        "recover (eta, conjugation) of a two-product exchange map",
        _classify_exchange, OPERATOR + ("--seed", "--variant")),
    "classify-intertwiner": Command(
        "recover (k0, m0, m1, c) of a translation/modulation intertwiner",
        lambda cfg: (jsonio.report_value_to_json(
            intertwine.classify_intertwiner(_load_operator(cfg), cfg.tol)), True), OPERATOR),
    "classify-torus": Command(
        "recover (support, frequency map) of a circle-grid kernel operator",
        lambda cfg: (jsonio.report_value_to_json(torus.classify_torus_operator(
            jsonio.kernel_family_from_json(jsonio.load(cfg.input)), cfg.tol)), True),
        ("--tol",)),
    "verify-twisted": Command(
        "measure the twisted-convolution representation identity",
        _verify_twisted, ("--tol", "--grid-S", "--grid-L"), needs_input=False, tol=5e-2),
    "check-axioms": Command(
        "run the convolution-homomorphism axiom check",
        _check_axioms, OPERATOR + ("--seed", "--mode", "--samples")),
    "construct": Command(
        "build an operator table from canonical parameters",
        _construct, ("--n",), bare_report=True),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise argparse.ArgumentError(None, message)     # one error line, exit 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="convalg",
        description="Classify operators on finite cyclic groups into their "
                    "canonical transform forms, or report a concrete violation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        defaults = asdict(RunConfig(name, tol=spec.tol))
        p = sub.add_parser(name, help=spec.help)
        for option in ("--input", "--output") + spec.options:
            p.add_argument(option, required=option == "--input" and spec.needs_input,
                           default=defaults[option[2:].replace("-", "_")], **OPTIONS[option])
    return parser


PARSER = build_parser()


def run(argv=None) -> int:
    try:
        cfg = RunConfig(**vars(PARSER.parse_args(argv)))
        if not 0 < cfg.tol < np.inf:
            raise ValueError("--tol must be positive and finite")
        if cfg.n is not None and cfg.n < 1:
            raise ValueError("--n must be >= 1")
        if cfg.mode == "sampled" and cfg.samples < 1:
            raise ValueError("--samples must be >= 1")
        command = COMMANDS[cfg.command]
        result, passed = command.run(cfg)
        report, code = {"result": result, "error": None}, 0 if passed else 1
    except ClassificationError as exc:
        report, code = {"result": None,
                        "error": {"type": type(exc).__name__, "message": str(exc),
                                  "details": {k: jsonio.report_value_to_json(v)
                                              for k, v in exc.details.items()}}}, 1
    except (argparse.ArgumentError, ConvalgError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = (report["result"] if command.bare_report
           else {"schema": jsonio.SCHEMA_VERSION, "config": asdict(cfg), **report})
    try:
        if cfg.output:
            jsonio.dump(doc, cfg.output)
        else:
            # serialized in full first, so a NaN leaves stdout empty
            sys.stdout.write(json.dumps(doc, **jsonio.LAYOUT) + "\n")
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # strict JSON refuses the NaN residual of products that overflowed
        source = f"--input {cfg.input}" if cfg.input else "the input"
        print(f"error: {source} is too large to check ({exc})", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(run())
