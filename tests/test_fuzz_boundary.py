"""Mutated fixtures at the CLI boundary: exit 0, 1 or 2, never a traceback.

Every bundled fixture is fed, under each command that reads it, through
random edits: dropped, duplicated and retyped fields, huge and tiny numbers,
extra nesting and truncated lists or text.  Whatever the edit, the command
exits 0, 1 or 2 without a traceback or a warning; exit 2 prints exactly one
`error:` line and leaves no file behind; a report parses as strict JSON.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import tempfile
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from convalg import cli  # noqa: E402

from helpers import CRASH_CASES, DEEP, FIXTURES, edited_fixture  # noqa: E402

OPERATOR_COMMANDS = ("classify-conv", "check-axioms", "classify-exchange",
                     "classify-intertwiner")


def readers(doc: dict) -> tuple[str, ...]:
    """The commands that read a fixture of this kind."""
    if "columns" in doc:
        return OPERATOR_COMMANDS
    if "kernels" in doc:
        return ("classify-torus",)
    if "f" in doc:
        return ("verify-twisted",)
    return ("construct",)


DOCS = {p.name: json.loads(p.read_text(encoding="utf-8"))
        for p in sorted(FIXTURES.glob("*.json"))}
CASES = [(command, name) for name, doc in DOCS.items() for command in readers(doc)]

ODD_VALUES = [None, True, False, "x", "", {}, [], [1], [[1, 0]], 0, -1, 1.5]
EXTREMES = [1e308, -1e308, 5e-324, 1e-300, 2 ** 70, -(2 ** 70), 10 ** 400,
            math.inf, -math.inf, math.nan]


def mutate(draw, node):
    """node with one edit somewhere below it; containers on the path are copied."""
    container = isinstance(node, (dict, list)) and len(node) > 0
    if container and draw(st.sampled_from((True, True, True, False))):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node = node.copy()
        node[key] = mutate(draw, node[key])
        return node
    edit = draw(st.sampled_from(["retype", "extreme", "nest"]
                                + (["drop", "duplicate", "truncate"] if container else [])))
    if edit == "retype":
        return draw(st.sampled_from(ODD_VALUES))
    if edit == "extreme":
        return draw(st.sampled_from(EXTREMES))
    if edit == "nest":
        return draw(st.sampled_from([[node], {"x": node}]))
    items = list(node.items()) if isinstance(node, dict) else list(node)
    i = draw(st.integers(0, len(items) - 1))
    if edit == "drop":
        del items[i]
    elif edit == "duplicate":       # a field is copied under a new name
        items.insert(i, (f"{items[i][0]}2", items[i][1]) if isinstance(node, dict) else items[i])
    else:
        del items[i:]
    return dict(items) if isinstance(node, dict) else items


@st.composite
def mutated_documents(draw):
    command, name = draw(st.sampled_from(CASES))
    doc = DOCS[name]
    for _ in range(draw(st.integers(1, 2))):
        doc = mutate(draw, doc)
    text = json.dumps(doc)
    if draw(st.integers(0, 15)) == 0:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return command, text, draw(st.booleans())


def crash_case(case: str, to_stdout: bool = False):
    command, fixture, edits = CRASH_CASES[case]
    return command, json.dumps(edited_fixture(fixture, edits)), to_stdout


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_documents())
@example(case=crash_case("sigma-missing"))
@example(case=crash_case("support-over-n", to_stdout=True))
@example(case=crash_case("huge-m1"))
@example(case=crash_case("f-not-object"))
@example(case=crash_case("entry-1e308", to_stdout=True))
@example(case=("classify-torus", DEEP, False))
def test_mutated_fixture(case):
    command, text, to_stdout = case
    with tempfile.TemporaryDirectory() as work:
        work = pathlib.Path(work)
        (work / "doc.json").write_text(text, encoding="utf-8")
        argv = [command, "--input", str(work / "doc.json")]
        if not to_stdout:
            argv += ["--output", str(work / "report.json")]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.run(argv)
        out, err = out.getvalue(), err.getvalue()
        assert not caught, [str(w.message) for w in caught]
        assert code in (0, 1, 2)
        if code == 2:
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
            assert os.listdir(work) == ["doc.json"]
        else:
            assert err == ""
            report = out if to_stdout else (work / "report.json").read_text(encoding="utf-8")
            json.loads(report, parse_constant=_reject_constant)
