"""Every classifier rejection, pinned: its name, constructor, message and details.

The CLI report and tools/report_bytes.py write the type name, `str(exc)` and
the `details` mapping (keys in order) of a rejection, so each must stay
byte-identical; several types are raised by no bundled fixture or workload
request, and this table is their only guard.
"""

import importlib
import inspect
import pathlib
import pickle
import re

import pytest

from convalg import errors
from convalg.errors import ClassificationError
from convalg.operators import AxiomReport

REPORT = AxiomReport(False, 0.0123456, 1e-9)
WITNESS = object()
NAN = float("nan")

# (name, positional args, keyword args, str(exc), details in order)
CASES = [
    ("AxiomViolation", (REPORT,), {},
     "operator is not a convolution homomorphism (residual 1.235e-02)",
     {"report": REPORT}),
    ("RowNotHomomorphic", (3, 0.5), {},
     "row 3: sup norm 0.5 is within tolerance of neither 0 nor 1",
     {"eta": 3, "max_abs": 0.5}),
    ("RowNotHomomorphic", (2, NAN), {},
     "row 2: sup norm nan is within tolerance of neither 0 nor 1",
     {"eta": 2, "max_abs": NAN}),
    ("NotRootOfUnity", (5, -0.25 + 1j, 1.23456e-5), {},
     "row 5 (generator value (-0.25+1j)) is 1.235e-05 away from its nearest character",
     {"eta": 5, "z": -0.25 + 1j, "deviation": 1.23456e-5}),
    ("FixedPointViolation", ("delta_0", 0.5), {},
     "step 1: image of delta_0 is not fixed (residual 5.000e-01)",
     {"which": "delta_0", "residual": 0.5}),
    ("DeltaImageNotDelta", (4,), {},
     "step 2: image of the point mass at 4 is not a point mass",
     {"j": 4}),
    ("DeltaImageInconsistent", (2, 6, 4), {},
     "step 2: point mass 2 maps to index 6, expected 4 = j * sigma(1) mod n",
     {"j": 2, "got": 6, "expected": 4}),
    ("EtaNotCoprime", (2, 8), {},
     "step 2: recovered index map slope 2 shares a divisor with 8",
     {"eta": 2, "n": 8}),
    ("BetaNotIdentityOrConjugation", (1j, 0.5 + 0j), {},
     "step 3: scalar action maps 1j to (0.5+0j), which is neither c nor conj(c)",
     {"c": 1j, "beta_c": 0.5 + 0j}),
    ("FinalSweepViolation", (WITNESS, 3.5e-3), {},
     "step 4: a random signal violates the recovered form (residual 3.500e-03)",
     {"witness": WITNESS, "residual": 3.5e-3}),
    ("ZeroOperator", (), {},
     "operator is (numerically) zero",
     {}),
    ("EntryVanishes", (1, 7), {},
     "table entry at row 7, column 1 vanishes; the canonical form has constant nonzero modulus",
     {"j": 1, "ell": 7}),
    ("PhaseOffLattice", (3, 0.0625), {},
     "phase at index 3 is off the 2*pi/n lattice by 6.250e-02 rad",
     {"j": 3, "deviation": 0.0625}),
    ("ReconstructionMismatch", (2.5e-7,), {},
     "reconstructed table does not match the input (residual 2.500e-07)",
     {"residual": 2.5e-7}),
    ("NotUnimodular", (0.5,), {},
     "kernel sup-norm 0.5 is not within tolerance of 1",
     {"max_abs": 0.5}),
    ("SnapFailure", (-3, 0.125), {},
     "kernel is 1.250e-01 away from its nearest character, frequency -3",
     {"nearest": -3, "deviation": 0.125}),
    ("CharacterEquationViolation", (-2, REPORT), {},
     "kernel at frequency -2 violates the character equation (residual 1.235e-02)",
     {"xi": -2, "report": REPORT}),
]

REJECTIONS = sorted(name for name, obj in vars(errors).items()
                    if inspect.isclass(obj) and issubclass(obj, ClassificationError)
                    and obj is not ClassificationError)


@pytest.mark.parametrize("name,args,kwargs,message,details", CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
def test_rejection_is_pinned(name, args, kwargs, message, details):
    exc = getattr(errors, name)(*args, **kwargs)
    assert type(exc).__name__ == name
    assert isinstance(exc, ClassificationError)
    assert str(exc) == message
    assert list(exc.details) == list(details)
    for key, value in details.items():
        assert exc.details[key] is value or exc.details[key] == value
        assert getattr(exc, key) is exc.details[key]
    with pytest.raises(getattr(errors, name)):
        raise exc


def test_each_field_takes_exactly_one_value():
    with pytest.raises(ValueError):
        errors.SnapFailure(-3)
    with pytest.raises(ValueError):
        errors.ZeroOperator("operator is zero")
    with pytest.raises(AttributeError):
        errors.SnapFailure(-3, 0.125).xi


@pytest.mark.parametrize("name", REJECTIONS)
def test_rejection_survives_pickle(name):
    cls = getattr(errors, name)
    exc = cls(*(REPORT if f == "report" else 0.5 for f in cls.fields))
    exc.details["xi"] = 7               # a key added after raising, as the torus adds xi
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.details == exc.details and back.xi == 7


def test_every_rejection_has_a_case():
    assert sorted({c[0] for c in CASES}) == REJECTIONS
    assert len(REJECTIONS) == 16


def test_every_rejection_is_in_the_readme():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("### Rejections", 1)[1].split("###", 1)[0]
    assert sorted(re.findall(r"^\| `(\w+)` \|", table, re.M)) == REJECTIONS


def test_every_layout_name_is_in_its_module():
    # a moved or deleted name cannot stay documented in the README "Layout" table
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("## Layout", 1)[1].split("##", 1)[0]
    rows = re.findall(r"^\| `(convalg\.\w+)` +\|(.*)\|$", table, re.M)
    assert len(rows) == 10
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", contents):
            obj = module
            for part in name.split("."):
                assert hasattr(obj, part), f"{module_name} has no {name}"
                obj = getattr(obj, part)
