"""JSON wire formats for signals, operators, classifications and reports.

Complex arrays of any rank travel as nested lists ending in [re, im] pairs:
pairs() encodes one, values_from_json() decodes one; report_value_to_json
encodes every report value by one rule.  render() and dump() share one
encoder for the text in LAYOUT, _chunks, which raises json's own ValueError
and TypeError (a non-str key too: none is stringified), with no json fallback.
Every top-level document carries "schema": 1; unknown fields are rejected
so fixtures double as regression tests.  Loaders raise SchemaError with the
offending field path.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields, is_dataclass
from itertools import chain
from typing import Any, Mapping

import numpy as np

from .errors import SchemaError
from .groups import Group, Signal
from .operators import Operator
from .torus import KernelFamily, TorusGrid
from .twisted import PhaseSpaceFunction, PlaneGrid

SCHEMA_VERSION = 1
# the report layout: render() writes every report, to a file (dump) or to stdout, in it
LAYOUT = {"indent": 2, "sort_keys": True, "allow_nan": False}


def _require_fields(obj: Mapping, required: set, path: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {type(obj).__name__}", path)
    missing = required - obj.keys()
    if missing:
        raise SchemaError(f"missing field(s) {sorted(missing)}", path)
    unknown = obj.keys() - required
    if unknown:
        raise SchemaError(f"unknown field(s) {sorted(unknown)}", path)
    schema = obj.get("schema")
    # JSON true and 1.0 compare equal to 1, but neither is the version number
    if "schema" in required and (type(schema) is not int or schema != SCHEMA_VERSION):
        raise SchemaError(f"expected \"schema\": {SCHEMA_VERSION}", path)


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


def pairs(values) -> list:
    """A complex scalar or array as (nested lists of) [re, im] pairs."""
    values = np.asarray(values, dtype=np.complex128)
    return np.stack((values.real, values.imag), -1).tolist()


def values_from_json(v: Any, path: str, shape: tuple[int, ...]) -> np.ndarray:
    """An array of `shape` from nested lists of [re, im] pairs.

    One walk checks every list's type and length, one numpy call converts.
    A document failing either goes through _decode, which names the first
    bad list or pair.
    """
    items = [v]
    try:
        for size in (*shape, 2):
            if not (set(map(type, items)) <= {list} and set(map(len, items)) <= {size}):
                break
            items = list(chain.from_iterable(items))
        else:
            if set(map(type, items)) <= {int, float}:    # no bool, as in _is_number
                values = np.array(items, np.float64).view(np.complex128).reshape(shape)
                if np.isfinite(values).all():
                    return values
    except OverflowError:                   # an integer literal beyond float range
        pass
    return np.array(_decode(v, path, shape), np.complex128).reshape(shape)


def _decode(v: Any, path: str, shape: tuple[int, ...]) -> Any:
    if shape:
        if not isinstance(v, list) or len(v) != shape[0]:
            got = f"length {len(v)}" if isinstance(v, list) else type(v).__name__
            raise SchemaError(f"expected a list of length {shape[0]}, got {got}", path)
        return [_decode(x, f"{path}[{i}]", shape[1:]) for i, x in enumerate(v)]
    if not isinstance(v, list) or len(v) != 2 or not all(_is_number(x) for x in v):
        raise SchemaError("complex values are [re, im] pairs", path)
    try:
        if np.isfinite(z := complex(v[0], v[1])):
            return z
    except OverflowError:                   # an integer literal beyond float range
        pass
    raise SchemaError("values must be finite (a literal overflowed)", path)


# -- signals and operators ----------------------------------------------------

def signal_to_json(a: Signal) -> dict:
    return {"group": list(a.group.factors), "values": pairs(a.values)}


def signal_from_json(obj: Any, path: str = "$") -> Signal:
    _require_fields(obj, {"group", "values"}, path)
    group = Group(_ints_from_json(obj["group"], f"{path}.group"))
    return Signal(group, values_from_json(obj["values"], f"{path}.values", (group.order,)))


def operator_to_json(T: Operator) -> dict:
    table = T.to_dense().table
    return {"schema": SCHEMA_VERSION,
            "group": list(T.group.factors),
            "columns": pairs(table.T)}


def operator_from_json(obj: Any, path: str = "$") -> Operator:
    _require_fields(obj, {"schema", "group", "columns"}, path)
    group = Group(_ints_from_json(obj["group"], f"{path}.group"))
    n = group.order
    columns = values_from_json(obj["columns"], f"{path}.columns", (n, n))
    return Operator.from_table(group, columns.T)


# -- reports and classifications -----------------------------------------------

def report_value_to_json(x: Any) -> Any:
    """A classification, axiom report, witness or rejection detail as JSON, by
    one rule: str, int, float and None pass through; complex values and arrays
    become pairs(); a tuple or list a list, a dict its sorted [key, value]
    pairs, a Signal its signal_to_json, any other dataclass an object of its
    fields; anything else its str()."""
    return _encode(x)


def _encode(x: Any) -> Any:
    # the rule, recursing by a private name: a wrapper on the public names (the
    # benchmark's tracer installs one) then records one call per report value
    if isinstance(x, (str, int, float)) or x is None:     # bool is an int
        return x
    if isinstance(x, (complex, np.complexfloating, np.ndarray)):
        return pairs(x)
    if isinstance(x, (tuple, list)):
        return [_encode(v) for v in x]
    if isinstance(x, dict):
        return _encode(sorted(x.items()))
    if isinstance(x, Signal):
        return signal_to_json(x)
    if is_dataclass(x) and not isinstance(x, type):
        return {f.name: _encode(getattr(x, f.name)) for f in fields(x)}
    return str(x)


# The former per-type encoders, now names of the one rule, kept only because
# perfbench/tracer.py wraps jsonio functions by these names; they go with that patching.
witness_to_json = axiom_report_to_json = report_value_to_json
conv_classification_to_json = exchange_classification_to_json = report_value_to_json
intertwiner_classification_to_json = torus_classification_to_json = report_value_to_json


# -- torus and plane-grid payloads ----------------------------------------------

def kernel_family_to_json(fam: KernelFamily) -> dict:
    return {"schema": SCHEMA_VERSION, "M": fam.grid.M, "N": fam.N,
            "kernels": list(map(list, zip(fam.frequencies, pairs(fam.kernels))))}


def kernel_family_from_json(obj: Any, path: str = "$") -> KernelFamily:
    _require_fields(obj, {"schema", "M", "N", "kernels"}, path)
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
        rows[xi + N] = values_from_json(entry[1], f"{p}[1]", (grid.M,))
    return KernelFamily(grid, N, np.stack(rows))


def _phase_space_fields(f: PhaseSpaceFunction) -> dict:
    return {"L": f.grid.half_width, "S": f.grid.side, "values": pairs(f.values)}


def phase_space_from_json(obj: Any, path: str = "$") -> PhaseSpaceFunction:
    _require_fields(obj, {"schema", "L", "S", "values"}, path)
    return _phase_space_from_fields(obj, path)


def _phase_space_from_fields(obj: dict, path: str) -> PhaseSpaceFunction:
    """The function an object with exactly the fields L, S and values holds."""
    if not _is_number(obj["L"]):
        raise SchemaError("expected a number", f"{path}.L")
    try:
        L = float(obj["L"])
    except OverflowError:
        raise SchemaError("must be finite (a literal overflowed)", f"{path}.L") from None
    grid = PlaneGrid(L, _int_from_json(obj["S"], f"{path}.S"))
    return PhaseSpaceFunction(
        grid, values_from_json(obj["values"], f"{path}.values", (grid.side, grid.side)))


def pair_to_json(f: PhaseSpaceFunction, g: PhaseSpaceFunction) -> dict:
    return {"schema": SCHEMA_VERSION, "f": _phase_space_fields(f), "g": _phase_space_fields(g)}


def pair_from_json(obj: Any, path: str = "$") -> tuple[PhaseSpaceFunction, PhaseSpaceFunction]:
    _require_fields(obj, {"schema", "f", "g"}, path)
    for key in ("f", "g"):      # both field sets are checked before any value is decoded
        _require_fields(obj[key], {"L", "S", "values"}, f"{path}.{key}")
    return (_phase_space_from_fields(obj["f"], f"{path}.f"),
            _phase_space_from_fields(obj["g"], f"{path}.g"))


# -- construct-command parameter documents ---------------------------------------

def construct_params_from_json(obj: Any, path: str = "$") -> dict:
    """Either conv parameters (n, support, sigma) or intertwiner (n, k0, m0, m1, c)."""
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", path)
    if "support" in obj:
        _require_fields(obj, {"schema", "n", "support", "sigma"}, path)
        sigma = {}
        if not isinstance(obj["sigma"], list):
            raise SchemaError("sigma is a list of [eta, sigma(eta)] pairs", f"{path}.sigma")
        for i, entry in enumerate(obj["sigma"]):
            p = f"{path}.sigma[{i}]"
            if not isinstance(entry, list) or len(entry) != 2:
                raise SchemaError("sigma entries are [eta, sigma(eta)] pairs", p)
            eta = _int_from_json(entry[0], f"{p}[0]")
            if eta in sigma:
                raise SchemaError(f"sigma({eta}) is given twice", p)
            sigma[eta] = _int_from_json(entry[1], f"{p}[1]")
        return {"kind": "conv", "n": _int_from_json(obj["n"], f"{path}.n"),
                "support": _ints_from_json(obj["support"], f"{path}.support"),
                "sigma": sigma}
    _require_fields(obj, {"schema", "n", "k0", "m0", "m1", "c"}, path)
    ints = {k: _int_from_json(obj[k], f"{path}.{k}") for k in ("n", "k0", "m0", "m1")}
    return {"kind": "intertwiner", **ints, "c": values_from_json(obj["c"], f"{path}.c", ()).item()}


# -- the report layout -------------------------------------------------------------

def render(doc: Any) -> list[str]:
    """The text json writes for doc in LAYOUT, in pieces: "".join(render(doc)) is it.

    render and dump share the one encoder, _chunks, and no other: a list of
    finite int and float values, or a list of non-empty such lists, is
    rendered by repr() and one str.replace per level, in C; str values and
    keys by json's own escaper; deeper lists element by element.  _chunks
    raises json's own errors, before render returns any piece: ValueError
    at the first NaN or infinity, TypeError at a type json does not know.
    A non-str key is a TypeError too, not stringified.  Nothing falls back
    to json's encoder.
    """
    return list(_chunks(doc, "\n"))


_INDENT = " " * LAYOUT["indent"]
_escape = json.encoder.encode_basestring_ascii


def _chunks(x: Any, nl: str):
    """render()'s pieces of x, at most one list of number lists each;
    nl is a newline and the indentation of the line x ends on.  The cases go
    in json's order: str, the three constants, int, float, list, dict."""
    if isinstance(x, str):
        yield _escape(x)
    elif x is None or x is True or x is False:
        yield "null" if x is None else "true" if x else "false"
    elif isinstance(x, int):
        yield int.__repr__(x)
    elif isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("Out of range float values are not JSON compliant: " + repr(x))
        yield float.__repr__(x)
    elif isinstance(x, (list, tuple)):
        if not x:
            yield "[]"
        elif (numbers := _numbers(x, nl)) is not None:
            yield numbers
        else:
            inner = nl + _INDENT
            for i, v in enumerate(x):
                yield ("[" if i == 0 else ",") + inner
                yield from _chunks(v, inner)
            yield nl + "]"
    elif isinstance(x, dict):
        if not x:
            yield "{}"
            return
        if bad := [k for k in x if not isinstance(k, str)]:
            raise TypeError(f"keys must be str, not {type(bad[0]).__name__}")
        inner = nl + _INDENT
        for i, k in enumerate(sorted(x)):
            yield ("{" if i == 0 else ",") + inner + _escape(k) + ": "
            yield from _chunks(x[k], inner)
        yield nl + "}"
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _numbers(x: list, nl: str):
    """x rendered at nl if it is a list of finite numbers or a list of non-empty
    lists of them, list, int and float exactly (no tuple, no bool, no subclass,
    whose repr differs); else None."""
    if type(x) is not list:
        return None
    items, depth = x, 1
    if set(map(type, items)) == {list} and 0 not in set(map(len, items)):
        items, depth = list(chain.from_iterable(items)), 2
    # a nan or inf (the only reprs here with an n) goes element by element: _chunks raises
    if not set(map(type, items)) <= {int, float} or "n" in (text := repr(x)):
        return None
    inner, leaf = nl + _INDENT, nl + 2 * _INDENT
    if depth == 1:
        return "[" + inner + text[1:-1].replace(", ", "," + inner) + nl + "]"
    # the outer commas first: a rendered separator holds no ", " for the inner ones to match
    text = text[2:-2].replace("], [", inner + "]," + inner + "[" + leaf).replace(", ", "," + leaf)
    return "[" + inner + "[" + leaf + text + inner + "]" + nl + "]"


def dump(obj: dict, path: str) -> None:
    """Deterministic serialization: render()'s text and a trailing newline.

    The text goes piece by piece from _chunks to a temporary file beside
    path, renamed over path once complete, so a document that cannot be
    rendered (render's ValueError or TypeError) or a failed write leaves no
    file behind.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(_chunks(obj, "\n"))
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _reject_constant(name: str) -> float:
    raise SchemaError(f"non-finite number {name} is not allowed")


def load(path: str) -> Any:
    """Parse a JSON file; NaN and Infinity constants and too deep a nesting raise SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except RecursionError:
            raise SchemaError("nested too deeply to parse") from None
