"""jsonio.render writes the text of json.dumps(doc, **jsonio.LAYOUT), byte for byte.

The property runs over report-shaped documents: str keys, ints, bools, None,
finite floats at the edges of their range, strings that look like JSON
syntax or hold non-ASCII text, empty containers, and numeric lists, ragged
and uniform, up to depth 3.  NaN and the infinities raise json's own
ValueError, a non-str key a TypeError, and leave both sinks, a file and
stdout, empty.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from convalg import cli, jsonio  # noqa: E402
from helpers import FIXTURES  # noqa: E402

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1e-7, 1e16, 2.5]
numbers = (st.integers(-2 ** 70, 2 ** 70)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from(EDGE_FLOATS))
text = st.text(st.sampled_from(list('ab "\\[]{},:\n\té☃\x00\u2028')) | st.characters(), max_size=10)
row = st.lists(numbers, max_size=4)


def uniform(width):
    return st.lists(st.lists(numbers, min_size=width, max_size=width), min_size=1, max_size=4)


numeric_lists = (row
                 | st.integers(1, 3).flatmap(uniform)                       # depth 2, uniform
                 | st.lists(row, max_size=4)                               # depth 2, ragged
                 | st.lists(st.integers(1, 3).flatmap(uniform), max_size=3)  # depth 3
                 | st.lists(st.lists(row, max_size=3), max_size=3))        # depth 3, ragged
scalars = st.none() | st.booleans() | numbers | text
documents = st.recursive(
    scalars | numeric_lists,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=documents)
@example(doc={"b": [[[1.0, -0.0], [5e-324, 1e308]]], "a": [], "c": {}, "d": [[], [1]],
              "e": 'q"[], é', "f": True, "g": None, "h": [1, [2, [3.5]]]})
@example(doc=[[1, 2], [3]])
@example(doc=[True, 1, 1.0])
def test_render_is_json_dumps(doc, tmp_path_factory):
    expected = json.dumps(doc, **jsonio.LAYOUT)
    assert "".join(jsonio.render(doc)) == expected
    path = tmp_path_factory.mktemp("dump") / "doc.json"
    jsonio.dump(doc, path)
    assert path.read_text(encoding="utf-8") == expected + "\n"


def test_what_render_leaves_to_json():
    # tuples, a float subclass: rendered as json renders them
    class Half(float):
        def __repr__(self):
            return "Half()"

    for doc in [(1.0, (2, 3)), [Half(0.5)], {"a": (Half(1.5),)}]:
        assert "".join(jsonio.render(doc)) == json.dumps(doc, **jsonio.LAYOUT)
    with pytest.raises(TypeError, match="not JSON serializable"):
        jsonio.render({"a": [1, object()]})


@pytest.mark.parametrize("doc", [{1: "a", 2: [1]}, {"a": [{"b": 1, None: 2}]}])
def test_non_str_key_raises_and_writes_no_file(tmp_path, doc):
    # json would stringify the key; no report holds one, so it is rejected
    with pytest.raises(TypeError, match="keys must be str"):
        jsonio.render(doc)
    with pytest.raises(TypeError, match="keys must be str"):
        jsonio.dump(doc, tmp_path / "rep.json")
    assert list(tmp_path.iterdir()) == []


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def planted(bad):
    """bad where a report can hold a float: a field, a pair, a row of pairs, a mixed list."""
    return [{"residual": bad}, {"values": [1.0, bad]}, {"rows": [[[0.0, 1.0]], [[bad, 2.0]]]},
            {"a": [1, [2.0, bad]], "z": "after"}, [bad],
            # after an int beyond float range, which math.isfinite cannot take, and 1e308
            [2 ** 1100, bad], [[1, 2 ** 1100], [bad, 0.0]], {"a": 1e308, "b": [bad]}]


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_non_finite_raises_json_error_and_writes_no_file(tmp_path, bad):
    for doc in planted(bad):
        with pytest.raises(ValueError) as stdlib:
            json.dumps(doc, **jsonio.LAYOUT)
        with pytest.raises(ValueError) as ours:
            jsonio.render(doc)
        assert str(ours.value) == str(stdlib.value)
        with pytest.raises(ValueError) as dumped:
            jsonio.dump(doc, tmp_path / "rep.json")
        assert str(dumped.value) == str(stdlib.value)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("to_stdout", [True, False], ids=["stdout", "file"])
def test_non_finite_report_leaves_both_sinks_empty(tmp_path, capsys, monkeypatch, bad, to_stdout):
    doc = planted(bad)[2]
    with pytest.raises(ValueError) as stdlib:
        json.dumps({"result": doc}, **jsonio.LAYOUT)
    construct = cli.COMMANDS["construct"]
    monkeypatch.setitem(cli.COMMANDS, "construct", construct._replace(run=lambda cfg: (doc, True)))
    fixture = str(FIXTURES / "conv_params_n6.json")
    argv = ["construct", "--input", fixture] + ([] if to_stdout else ["--output", str(tmp_path / "r")])
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --input {fixture} is too large to check ({stdlib.value})\n"
    assert list(tmp_path.iterdir()) == []
