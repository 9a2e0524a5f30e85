"""JSON wire formats for signals, operators, classifications and reports.

Complex scalars travel as [re, im] pairs.  Every top-level document carries
"schema": 1; unknown fields are rejected so fixtures double as regression
tests.  Loaders raise SchemaError with the offending field path.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from typing import Any, Mapping

import numpy as np

from .convhom import ConvClassification
from .errors import SchemaError
from .exchange import ExchangeClassification
from .groups import Group, Signal
from .intertwine import IntertwinerClassification
from .operators import AxiomReport, Operator, Witness
from .torus import KernelFamily, TorusClassification, TorusGrid
from .twisted import PhaseSpaceFunction, PlaneGrid

SCHEMA_VERSION = 1


def _require_fields(obj: Mapping, required: set, path: str,
                    optional: set = frozenset()) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {type(obj).__name__}", path)
    missing = required - obj.keys()
    if missing:
        raise SchemaError(f"missing field(s) {sorted(missing)}", path)
    unknown = obj.keys() - required - optional
    if unknown:
        raise SchemaError(f"unknown field(s) {sorted(unknown)}", path)


def _check_schema(obj: Mapping, path: str) -> None:
    if obj.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"expected \"schema\": {SCHEMA_VERSION}", path)


def complex_to_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _int_from_json(v: Any, path: str) -> int:
    # JSON true, 2.7 and "5" are not integers, though int() takes them
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(f"expected an integer, got {type(v).__name__}", path)
    return v


def _ints_from_json(v: Any, path: str) -> list[int]:
    if not isinstance(v, list):
        raise SchemaError("expected a list of integers", path)
    return [_int_from_json(x, f"{path}[{i}]") for i, x in enumerate(v)]


def complex_from_json(v: Any, path: str) -> complex:
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(_is_number(x) for x in v)):
        raise SchemaError("complex values are [re, im] pairs", path)
    try:
        if np.isfinite(z := complex(v[0], v[1])):
            return z
    except OverflowError:                   # an integer literal beyond float range
        pass
    raise SchemaError("values must be finite (a literal overflowed)", path)


def values_to_json(values: np.ndarray) -> list[list[float]]:
    return [complex_to_json(z) for z in values]


def values_from_json(v: Any, path: str) -> np.ndarray:
    if not isinstance(v, list):
        raise SchemaError("expected a list of [re, im] pairs", path)
    # one numpy call; a list that fails a check is walked to name the bad entry
    try:
        if set(map(type, v)) <= {list} and set(map(len, v)) <= {2}:
            flat = list(chain.from_iterable(v))
            if set(map(type, flat)) <= {int, float}:    # no bool, as in _is_number
                values = np.array(flat, np.float64).view(np.complex128)
                if np.isfinite(values).all():
                    return values
    except OverflowError:                   # an integer literal beyond float range
        pass
    return np.array([complex_from_json(x, f"{path}[{i}]") for i, x in enumerate(v)])


# -- signals and operators ----------------------------------------------------

def signal_to_json(a: Signal) -> dict:
    return {"group": list(a.group.factors), "values": values_to_json(a.values)}


def signal_from_json(obj: Any, path: str = "$") -> Signal:
    _require_fields(obj, {"group", "values"}, path)
    group = Group(_ints_from_json(obj["group"], f"{path}.group"))
    values = values_from_json(obj["values"], f"{path}.values")
    if values.shape != (group.order,):
        raise SchemaError(
            f"values length {values.shape[0]} != group order {group.order}",
            f"{path}.values")
    return Signal(group, values)


def operator_to_json(T: Operator) -> dict:
    table = T.to_dense().table
    return {"schema": SCHEMA_VERSION,
            "group": list(T.group.factors),
            "columns": [values_to_json(table[:, k]) for k in range(table.shape[1])]}


def operator_from_json(obj: Any, path: str = "$") -> Operator:
    _require_fields(obj, {"schema", "group", "columns"}, path)
    _check_schema(obj, path)
    group = Group(_ints_from_json(obj["group"], f"{path}.group"))
    n = group.order
    cols = obj["columns"]
    if not isinstance(cols, list) or len(cols) != n:
        raise SchemaError(f"expected {n} columns", f"{path}.columns")
    table = np.empty((n, n), dtype=np.complex128)
    for k, col in enumerate(cols):
        v = values_from_json(col, f"{path}.columns[{k}]")
        if v.shape != (n,):
            raise SchemaError(f"column length {v.shape[0]} != {n}",
                              f"{path}.columns[{k}]")
        table[:, k] = v
    return Operator.from_table(group, table)


# -- reports and classifications -----------------------------------------------

def report_value_to_json(x: Any) -> Any:
    """A witness input or a rejection detail as JSON; str() for anything else."""
    if isinstance(x, Witness):
        return witness_to_json(x)
    if isinstance(x, AxiomReport):
        return axiom_report_to_json(x)
    if isinstance(x, Signal):
        return signal_to_json(x)
    if isinstance(x, (complex, np.complexfloating)):
        return complex_to_json(complex(x))
    if isinstance(x, (str, int, float)) or x is None:     # bool is an int
        return x
    return str(x)


def witness_to_json(w: Witness) -> dict:
    return {"identity": w.identity,
            "inputs": [report_value_to_json(x) for x in w.inputs],
            "lhs": values_to_json(np.atleast_1d(w.lhs)),
            "rhs": values_to_json(np.atleast_1d(w.rhs)),
            "residual": w.residual}


def axiom_report_to_json(r: AxiomReport) -> dict:
    return {"passed": r.passed,
            "max_residual": r.max_residual,
            "tol": r.tol,
            "checked": r.checked,
            "witness": witness_to_json(r.witness) if r.witness else None}


def conv_classification_to_json(c: ConvClassification) -> dict:
    return {"support": sorted(c.support),
            "sigma": [[eta, c.sigma[eta]] for eta in sorted(c.support)],
            "residual": c.residual}


def exchange_classification_to_json(c: ExchangeClassification) -> dict:
    return {"eta": c.eta, "conjugate": c.conjugate,
            "variant": c.variant, "residual": c.residual}


def intertwiner_classification_to_json(c: IntertwinerClassification) -> dict:
    return {"k0": c.k0, "m0": c.m0, "m1": c.m1,
            "c": complex_to_json(c.c), "residual": c.residual}


def torus_classification_to_json(c: TorusClassification) -> dict:
    return {"support": sorted(c.support),
            "freq_map": [[xi, c.freq_map[xi]] for xi in sorted(c.support)],
            "residual": c.residual}


# -- torus and plane-grid payloads ----------------------------------------------

def kernel_family_to_json(fam: KernelFamily) -> dict:
    return {"schema": SCHEMA_VERSION, "M": fam.grid.M, "N": fam.N,
            "kernels": [[xi, values_to_json(fam.kernel(xi))]
                        for xi in fam.frequencies]}


def kernel_family_from_json(obj: Any, path: str = "$") -> KernelFamily:
    _require_fields(obj, {"schema", "M", "N", "kernels"}, path)
    _check_schema(obj, path)
    grid = TorusGrid(_int_from_json(obj["M"], f"{path}.M"))
    N = _int_from_json(obj["N"], f"{path}.N")
    if N < 0:
        raise SchemaError(f"window half-width {N} is negative", f"{path}.N")
    # the count is checked before anything is allocated for the rows
    if not isinstance(obj["kernels"], list) or len(obj["kernels"]) != 2 * N + 1:
        raise SchemaError(f"expected {2 * N + 1} kernels", f"{path}.kernels")
    rows = [None] * (2 * N + 1)
    for i, entry in enumerate(obj["kernels"]):
        p = f"{path}.kernels[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaError("kernel entries are [xi, values] pairs", p)
        xi = _int_from_json(entry[0], f"{p}[0]")
        if not -N <= xi <= N or rows[xi + N] is not None:
            raise SchemaError(f"frequency {xi} out of window or repeated", p)
        v = values_from_json(entry[1], f"{p}[1]")
        if v.shape != (grid.M,):
            raise SchemaError(f"kernel length {v.shape[0]} != M = {grid.M}", p)
        rows[xi + N] = v
    return KernelFamily(grid, N, np.stack(rows))


def phase_space_to_json(f: PhaseSpaceFunction) -> dict:
    return {"schema": SCHEMA_VERSION,
            "L": f.grid.half_width, "S": f.grid.side,
            "values": [values_to_json(row) for row in f.values]}


def phase_space_from_json(obj: Any, path: str = "$") -> PhaseSpaceFunction:
    _require_fields(obj, {"schema", "L", "S", "values"}, path)
    _check_schema(obj, path)
    if not _is_number(obj["L"]):
        raise SchemaError("expected a number", f"{path}.L")
    try:
        L = float(obj["L"])
    except OverflowError:
        raise SchemaError("must be finite (a literal overflowed)", f"{path}.L") from None
    grid = PlaneGrid(L, _int_from_json(obj["S"], f"{path}.S"))
    rows = obj["values"]
    if not isinstance(rows, list) or len(rows) != grid.side:
        raise SchemaError(f"expected {grid.side} rows", f"{path}.values")
    table = np.stack([values_from_json(r, f"{path}.values[{i}]")
                      for i, r in enumerate(rows)])
    return PhaseSpaceFunction(grid, table)


def pair_to_json(f: PhaseSpaceFunction, g: PhaseSpaceFunction) -> dict:
    return {"schema": SCHEMA_VERSION,
            "f": _strip_schema(phase_space_to_json(f)),
            "g": _strip_schema(phase_space_to_json(g))}


def pair_from_json(obj: Any, path: str = "$") -> tuple[PhaseSpaceFunction, PhaseSpaceFunction]:
    _require_fields(obj, {"schema", "f", "g"}, path)
    _check_schema(obj, path)
    f = phase_space_from_json({**obj["f"], "schema": SCHEMA_VERSION}, f"{path}.f")
    g = phase_space_from_json({**obj["g"], "schema": SCHEMA_VERSION}, f"{path}.g")
    return f, g


def _strip_schema(obj: dict) -> dict:
    return {k: v for k, v in obj.items() if k != "schema"}


# -- construct-command parameter documents ---------------------------------------

def construct_params_from_json(obj: Any, path: str = "$") -> dict:
    """Either conv parameters (n, support, sigma) or intertwiner (n, k0, m0, m1, c)."""
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", path)
    if "support" in obj:
        _require_fields(obj, {"schema", "n", "support", "sigma"}, path)
        _check_schema(obj, path)
        sigma = {}
        if not isinstance(obj["sigma"], list):
            raise SchemaError("sigma is a list of [eta, sigma(eta)] pairs", f"{path}.sigma")
        for i, entry in enumerate(obj["sigma"]):
            p = f"{path}.sigma[{i}]"
            if not isinstance(entry, list) or len(entry) != 2:
                raise SchemaError("sigma entries are [eta, sigma(eta)] pairs", p)
            sigma[_int_from_json(entry[0], f"{p}[0]")] = _int_from_json(entry[1], f"{p}[1]")
        return {"kind": "conv", "n": _int_from_json(obj["n"], f"{path}.n"),
                "support": _ints_from_json(obj["support"], f"{path}.support"),
                "sigma": sigma}
    _require_fields(obj, {"schema", "n", "k0", "m0", "m1", "c"}, path)
    _check_schema(obj, path)
    ints = {k: _int_from_json(obj[k], f"{path}.{k}") for k in ("n", "k0", "m0", "m1")}
    return {"kind": "intertwiner", **ints, "c": complex_from_json(obj["c"], f"{path}.c")}


def dump(obj: dict, path: str) -> None:
    """Deterministic serialization: sorted keys, fixed layout, trailing newline.

    The document goes to a temporary file beside path, renamed over path once
    complete, so a failed write leaves no truncated file behind.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _reject_constant(name: str) -> float:
    raise SchemaError(f"non-finite number {name} is not allowed")


def load(path: str) -> Any:
    """Parse a JSON file; NaN and Infinity constants raise SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)
