import dataclasses
import importlib.util
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from convalg import (Group, Operator, Signal, TorusGrid, check_conv_homomorphism,
                     classify, construct_intertwiner, delta,
                     fourier_coefficient_operator)
from convalg import jsonio
from convalg.errors import SchemaError
from convalg.jsonio import (axiom_report_to_json, construct_params_from_json,
                            conv_classification_to_json, dump,
                            exchange_classification_to_json,
                            intertwiner_classification_to_json,
                            kernel_family_from_json, kernel_family_to_json,
                            operator_from_json, operator_to_json,
                            pair_from_json, pair_to_json,
                            phase_space_from_json,
                            pairs, signal_from_json, signal_to_json,
                            torus_classification_to_json, values_from_json)
from convalg.torus import classify_torus_operator, extract_kernels
from convalg.twisted import PlaneGrid, gaussian_pair


class TestSignal:
    def test_roundtrip(self):
        g = Group((2, 3))
        a = Signal(g, np.arange(6) * (1 + 2j))
        back = signal_from_json(signal_to_json(a))
        assert back.group == g
        assert np.array_equal(back.values, a.values)

    def test_exact_field_names(self):
        doc = signal_to_json(delta(Group(3), 1))
        assert set(doc) == {"group", "values"}
        assert doc["group"] == [3]
        assert doc["values"][1] == [1.0, 0.0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            signal_from_json({"group": [3], "values": [[1, 0]]})

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError):
            signal_from_json({"group": [2], "values": [[1, 0], [0, 0]],
                              "extra": 1})

    @pytest.mark.parametrize("bad", [[1.0], "1+2j", [True, False]], ids=["short", "str", "bools"])
    def test_bad_complex_pair(self, bad):
        with pytest.raises(SchemaError, match=r"^\$: complex values are \[re, im\] pairs$"):
            values_from_json(bad, "$", ())


class TestValues:
    def test_bulk_decode_matches_per_entry_decode(self):
        rng = np.random.default_rng(8)
        parts = [0, -0.0, 0.0, 2 ** 53 + 1, -(3 ** 90), 7,
                 *rng.integers(-2 ** 62, 2 ** 62, size=40).tolist(),
                 *(rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, size=40)).tolist()]
        v = json.loads(json.dumps(
            [[parts[i] for i in rng.integers(len(parts), size=2)] for _ in range(500)]))
        got = values_from_json(v, "$", (500,))
        want = np.array([complex(x[0], x[1]) for x in v])      # an independent reference
        assert got.dtype == np.complex128 and got.shape == (500,)
        assert got.tobytes() == want.tobytes()      # bit-identical, -0.0 included

    @pytest.mark.parametrize("i", [0, 3, 7])
    @pytest.mark.parametrize("bad", [
        True, "1", [1.0], [1, 2, 3], [True, 0.0], ["1", 0.0],
        [json.loads("1e999"), 0.0], [0.0, json.loads("-1e999")],
        [10 ** 400, 0.0], [0.0, -10 ** 400]],
        ids=["true", "str", "short", "long", "true-re", "str-re", "1e999-re",
             "-1e999-im", "401-digit-re", "401-digit-im"])
    def test_bad_entry_named(self, bad, i):
        v = [[1, 0.5]] * 8
        v[i] = bad
        with pytest.raises(SchemaError) as exc:
            values_from_json(v, "$.values", (8,))
        assert exc.value.path == f"$.values[{i}]"

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (2, 1, 3)])
    def test_pairs_roundtrip_at_any_rank(self, shape):
        rng = np.random.default_rng(3)
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        doc = json.loads(json.dumps(pairs(z)))
        assert np.asarray(doc).shape == (*shape, 2)
        assert values_from_json(doc, "$", shape).tobytes() == z.tobytes()

    @pytest.mark.parametrize("doc, path, got", [
        ([[[1, 0]] * 3] * 2, "$", "length 2"),
        ([[[1, 0]] * 3, [[1, 0]] * 2, [[1, 0]] * 3], "$[1]", "length 2"),
        ([[[1, 0]] * 3, {"a": 1}, [[1, 0]] * 3], "$[1]", "dict"),
        ([[[1, 0]] * 3, [[1, 0]] * 3, [[1, 0], [1], [1, 0]]], "$[2][1]", None),
    ], ids=["outer-length", "inner-length", "inner-type", "short-pair"])
    def test_shape_error_names_first_bad_list(self, doc, path, got):
        with pytest.raises(SchemaError) as exc:
            values_from_json(doc, "$", (3, 3))
        assert exc.value.path == path
        if got is not None:
            assert str(exc.value) == f"{path}: expected a list of length 3, got {got}"


class TestOperator:
    def test_roundtrip_and_column_convention(self):
        g = Group(4)
        T = construct_intertwiner(g, 1, 2, 3, 1 + 1j)
        back = operator_from_json(operator_to_json(T))
        assert np.allclose(back.table, T.table)
        doc = operator_to_json(T)
        col0 = np.array([complex(r, i) for r, i in doc["columns"][0]])
        assert np.allclose(col0, T.table[:, 0])

    def test_schema_field_required(self):
        doc = operator_to_json(Operator.identity(Group(2)))
        del doc["schema"]
        with pytest.raises(SchemaError):
            operator_from_json(doc)

    def test_wrong_schema_version(self):
        doc = operator_to_json(Operator.identity(Group(2)))
        doc["schema"] = 2
        with pytest.raises(SchemaError):
            operator_from_json(doc)

    def test_column_count_checked(self):
        doc = operator_to_json(Operator.identity(Group(3)))
        doc["columns"] = doc["columns"][:2]
        with pytest.raises(SchemaError):
            operator_from_json(doc)

    def test_black_box_on_product_group(self):
        g = Group((2, 3))
        dft = Operator.dft(g)
        box = Operator.from_function(g, lambda a: dft(a))
        assert operator_to_json(box) == operator_to_json(dft)

    def test_short_column_named(self):
        doc = operator_to_json(Operator.identity(Group(3)))
        del doc["columns"][1][2]
        with pytest.raises(SchemaError) as exc:
            operator_from_json(doc)
        assert exc.value.path == "$.columns[1]"


class TestClassifications:
    def test_conv_classification_fields(self):
        c = classify(Operator.dft(Group(4)))
        doc = conv_classification_to_json(c)
        assert doc["support"] == [0, 1, 2, 3]
        assert doc["sigma"] == [[0, 0], [1, 1], [2, 2], [3, 3]]
        assert doc["residual"] <= 1e-10

    def test_exchange_classification_fields(self):
        from convalg import classify_exchange, construct_exchange
        c = classify_exchange(construct_exchange(Group(5), 3, True))
        doc = exchange_classification_to_json(c)
        assert doc == {"eta": 3, "conjugate": True, "variant": "direct",
                       "residual": doc["residual"]}

    def test_intertwiner_classification_fields(self):
        from convalg import classify_intertwiner
        c = classify_intertwiner(construct_intertwiner(Group(4), 1, 2, 3, 2 - 1j))
        doc = intertwiner_classification_to_json(c)
        assert doc["k0"] == 1 and doc["m0"] == 2 and doc["m1"] == 3
        assert doc["c"] == [2.0, -1.0]

    def test_torus_classification_signed_keys(self):
        grid = TorusGrid(32)
        cls = classify_torus_operator(
            extract_kernels(fourier_coefficient_operator(grid, 3), grid))
        doc = torus_classification_to_json(cls)
        assert doc["support"] == list(range(-3, 4))
        assert doc["freq_map"][0] == [-3, -3]

    def test_axiom_report_mirrors_fields(self):
        rep = check_conv_homomorphism(Operator.identity(Group(3)))
        doc = axiom_report_to_json(rep)
        assert doc["passed"] is False
        assert doc["witness"]["identity"] == "T(f*g) = T(f).T(g)"
        assert len(doc["witness"]["inputs"]) == 2


    def test_each_result_encodes_to_exactly_its_fields(self):
        from convalg import classify_exchange, classify_intertwiner, construct_exchange
        grid = TorusGrid(16)
        rejected = check_conv_homomorphism(Operator.identity(Group(3)))
        results = [
            classify(Operator.dft(Group(4))),
            classify_exchange(construct_exchange(Group(5), 3, True)),
            classify_intertwiner(construct_intertwiner(Group(4), 1, 2, 3, 2 - 1j)),
            classify_torus_operator(extract_kernels(fourier_coefficient_operator(grid, 2), grid)),
            rejected, rejected.witness]
        for r in results:
            doc = json.loads(json.dumps(jsonio.report_value_to_json(r)))
            assert set(doc) == {f.name for f in dataclasses.fields(r)}
            assert not {"n", "N"} & set(doc)

    @pytest.mark.parametrize("name", ["witness_to_json", "axiom_report_to_json",
                                      "conv_classification_to_json",
                                      "exchange_classification_to_json",
                                      "intertwiner_classification_to_json",
                                      "torus_classification_to_json"])
    def test_former_encoders_are_the_one_rule(self, name):
        assert getattr(jsonio, name) is jsonio.report_value_to_json


class TestKernelFamily:
    def test_roundtrip(self):
        grid = TorusGrid(16)
        fam = extract_kernels(fourier_coefficient_operator(grid, 2), grid)
        back = kernel_family_from_json(kernel_family_to_json(fam))
        assert back.N == 2 and back.grid.M == 16
        assert np.allclose(back.kernels, fam.kernels)

    def test_bad_value_names_its_entry(self):
        grid = TorusGrid(16)
        doc = kernel_family_to_json(extract_kernels(fourier_coefficient_operator(grid, 2), grid))
        doc["kernels"][3][1][5] = [True, 0.0]
        with pytest.raises(SchemaError) as exc:
            kernel_family_from_json(doc)
        assert exc.value.path == "$.kernels[3][1][5]"

    def test_short_kernel_named(self):
        grid = TorusGrid(16)
        doc = kernel_family_to_json(extract_kernels(fourier_coefficient_operator(grid, 2), grid))
        doc["kernels"][2][1].pop()
        with pytest.raises(SchemaError) as exc:
            kernel_family_from_json(doc)
        assert exc.value.path == "$.kernels[2][1]"

    def test_frequency_window_checked(self):
        grid = TorusGrid(16)
        fam = extract_kernels(fourier_coefficient_operator(grid, 2), grid)
        doc = kernel_family_to_json(fam)
        doc["kernels"][0][0] = 7
        with pytest.raises(SchemaError):
            kernel_family_from_json(doc)

    def test_repeated_frequency_rejected(self):
        grid = TorusGrid(16)
        fam = extract_kernels(fourier_coefficient_operator(grid, 2), grid)
        doc = kernel_family_to_json(fam)
        doc["kernels"][1][0] = doc["kernels"][0][0]
        with pytest.raises(SchemaError):
            kernel_family_from_json(doc)


def phase_space_doc(f) -> dict:
    """The phase-space table document that holds f."""
    return {"schema": 1, "L": f.grid.half_width, "S": f.grid.side, "values": pairs(f.values)}


class TestPhaseSpace:
    def test_roundtrip(self):
        f = gaussian_pair(PlaneGrid(4.0, 16))
        back = phase_space_from_json(phase_space_doc(f))
        assert back.grid == f.grid
        assert np.allclose(back.values, f.values)

    def test_row_major_in_x(self):
        from convalg.twisted import PhaseSpaceFunction
        grid = PlaneGrid(4.0, 16)
        vals = np.zeros((16, 16), dtype=complex)
        vals[3, 7] = 2.0
        doc = phase_space_doc(PhaseSpaceFunction(grid, vals))
        assert doc["values"][3][7] == [2.0, 0.0]

    def test_short_row_named(self):
        doc = phase_space_doc(gaussian_pair(PlaneGrid(4.0, 16)))
        doc["values"][3].pop()
        with pytest.raises(SchemaError) as exc:
            phase_space_from_json(doc)
        assert exc.value.path == "$.values[3]"

    def test_pair_roundtrip(self):
        grid = PlaneGrid(4.0, 16)
        f = gaussian_pair(grid)
        pf, pg = pair_from_json(pair_to_json(f, f))
        assert np.allclose(pf.values, f.values)
        assert np.allclose(pg.values, f.values)

    @pytest.mark.parametrize("edits, path, message", [
        # both members' field sets are checked before any value is decoded
        ([("g", "S", None), ("f", "L", "x")], "$.g", "missing field(s) ['S']"),
        ([("f", "L", "x"), ("g", "L", "x"), ("g", "values", "x")], "$.f.L",
         "expected a number"),
        ([("f", "schema", 1)], "$.f", "unknown field(s) ['schema']"),
    ], ids=["missing-field-first", "f-before-g", "member-schema"])
    def test_pair_error_order(self, edits, path, message):
        doc = json.loads(json.dumps(pair_to_json(*[gaussian_pair(PlaneGrid(4.0, 4))] * 2)))
        for member, field, value in edits:
            if value is None:
                del doc[member][field]
            else:
                doc[member][field] = value
        with pytest.raises(SchemaError) as exc:
            pair_from_json(doc)
        assert (exc.value.path, str(exc.value)) == (path, f"{path}: {message}")


def _set(doc, keys, value):
    for k in keys[:-1]:
        doc = doc[k]
    doc[keys[-1]] = value


INTEGER_FIELDS = [
    (signal_from_json, {"group": [2], "values": [[1, 0], [0, 0]]}, ("group", 0)),
    (operator_from_json, {"schema": 1, "group": [1], "columns": [[[1, 0]]]},
     ("group", 0)),
    (kernel_family_from_json, {"schema": 1, "M": 2, "N": 0,
                               "kernels": [[0, [[1, 0], [1, 0]]]]}, ("M",)),
    (kernel_family_from_json, {"schema": 1, "M": 2, "N": 0,
                               "kernels": [[0, [[1, 0], [1, 0]]]]}, ("N",)),
    (kernel_family_from_json, {"schema": 1, "M": 2, "N": 0,
                               "kernels": [[0, [[1, 0], [1, 0]]]]}, ("kernels", 0, 0)),
    (phase_space_from_json, {"schema": 1, "L": 1.0, "S": 2,
                             "values": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}, ("S",)),
    *[(construct_params_from_json,
       {"schema": 1, "n": 4, "support": [1], "sigma": [[1, 2]]}, keys)
      for keys in [("n",), ("support", 0), ("sigma", 0, 0), ("sigma", 0, 1)]],
    *[(construct_params_from_json,
       {"schema": 1, "n": 8, "k0": 3, "m0": 2, "m1": 5, "c": [1, 0]}, (key,))
      for key in ("n", "k0", "m0", "m1")],
]


PLANE_TABLE = {"L": 1.0, "S": 2, "values": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
# one valid document per schema-versioned loader
SCHEMA_DOCS = {
    "operator": (operator_from_json, {"schema": 1, "group": [1], "columns": [[[1, 0]]]}),
    "kernel-family": (kernel_family_from_json, {"schema": 1, "M": 2, "N": 0,
                                                "kernels": [[0, [[1, 0], [1, 0]]]]}),
    "phase-space": (phase_space_from_json, {"schema": 1, **PLANE_TABLE}),
    "pair": (pair_from_json, {"schema": 1, "f": PLANE_TABLE, "g": PLANE_TABLE}),
    "conv-params": (construct_params_from_json,
                    {"schema": 1, "n": 4, "support": [1], "sigma": [[1, 2]]}),
    "intertwiner-params": (construct_params_from_json,
                           {"schema": 1, "n": 8, "k0": 3, "m0": 2, "m1": 5, "c": [1, 0]}),
}


@pytest.mark.parametrize("value", [True, 1.0])
@pytest.mark.parametrize("kind", SCHEMA_DOCS)
def test_schema_is_the_integer_one(kind, value):
    # JSON true and 1.0 compare equal to 1; only the integer is the version
    load, doc = SCHEMA_DOCS[kind]
    doc = json.loads(json.dumps(doc))
    load(doc)                           # the document is valid as written
    doc["schema"] = value
    with pytest.raises(SchemaError) as exc:
        load(doc)
    assert (exc.value.path, str(exc.value)) == ("$", '$: expected "schema": 1')


class TestIntegerFields:
    @pytest.mark.parametrize("value", [True, 2.7, "5"])
    @pytest.mark.parametrize("load, doc, keys", INTEGER_FIELDS, ids=[
        f"{load.__name__}-{'.'.join(map(str, keys))}" for load, _, keys in INTEGER_FIELDS])
    def test_rejects_bool_float_and_string(self, load, doc, keys, value):
        doc = json.loads(json.dumps(doc))
        load(doc)                       # the document is valid as written
        _set(doc, keys, value)
        with pytest.raises(SchemaError):
            load(doc)

    @pytest.mark.parametrize("load, doc", [
        (signal_from_json, {"group": 2, "values": [[1, 0], [0, 0]]}),
        (operator_from_json, {"schema": 1, "group": 1, "columns": [[[1, 0]]]}),
        (construct_params_from_json, {"schema": 1, "n": 4, "support": 1, "sigma": []}),
        (construct_params_from_json, {"schema": 1, "n": 4, "support": [1], "sigma": 5}),
    ])
    def test_rejects_a_number_for_a_list(self, load, doc):
        with pytest.raises(SchemaError):
            load(doc)

    def test_rejects_boolean_half_width(self):
        doc = phase_space_doc(gaussian_pair(PlaneGrid(4.0, 16)))
        doc["L"] = True
        with pytest.raises(SchemaError):
            phase_space_from_json(doc)


class TestDump:
    def test_streams(self, tmp_path):
        # json.dumps would hold the whole text, 1.25 MiB at n = 64; dump holds 0.05
        doc = operator_to_json(Operator.dft(Group(64)))
        tracemalloc.start()
        try:
            dump(doc, tmp_path / "op.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 18

    def test_failed_write_keeps_previous_file(self, tmp_path):
        p = tmp_path / "rep.json"
        dump({"a": 1}, p)
        with pytest.raises(ValueError):
            dump({"a": float("nan")}, p)
        assert json.loads(p.read_text()) == {"a": 1}
        assert [q.name for q in tmp_path.iterdir()] == ["rep.json"]


ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_regenerated_fixtures_match_committed(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "gen_fixtures", ROOT / "tools" / "gen_fixtures.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "HERE", tmp_path)
    gen.main()
    committed = sorted(p.name for p in (ROOT / "fixtures").glob("*.json"))
    assert sorted(p.name for p in tmp_path.glob("*.json")) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (ROOT / "fixtures" / name).read_bytes(), name
