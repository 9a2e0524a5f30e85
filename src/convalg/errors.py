"""Exception taxonomy for the classifiers.

Every rejection a classifier can produce is a ClassificationError whose type
names the failed recovery step, so a caught error doubles as a counterexample
report.  REJECTIONS declares each type once: its name, its fields (constructor
order; the ``details`` keys, also read as attributes), a str.format template
over them for the message, and a docstring where the name does not say why.
"""

from __future__ import annotations

import copyreg
from typing import Any


class ConvalgError(Exception):
    """Base class for all library errors."""


class GroupMismatch(ConvalgError):
    """Two values that must live on the same group (or grid) do not."""


class GridMismatch(ConvalgError):
    """Two phase-space tables defined on different grids."""


class SchemaError(ConvalgError):
    """A JSON document does not match its declared schema."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


class ClassificationError(ConvalgError):
    """A classifier rejected its input; names the step that failed."""

    fields: tuple[str, ...] = ()
    template = ""

    def __init__(self, *values: Any, message: str | None = None):
        """One value per field, in order; message= replaces the template's message."""
        self.details = dict(zip(self.fields, values, strict=True))
        super().__init__(message or self.template.format(**self.details))

    def __getattr__(self, name: str) -> Any:
        # details is the one store, so a key added after raising reads back too
        if name in self.__dict__.get("details", ()):
            return self.details[name]
        raise AttributeError(name)

    def __reduce__(self):
        # type, message and all of details; the default re-calls type(message)
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


REJECTIONS = (
    # convolution-homomorphism classifier
    ("AxiomViolation", "report",
     "operator is not a convolution homomorphism (residual {report.max_residual:.3e})"),
    ("RowNotHomomorphic", "eta value",
     "row {eta}: value at the identity column is {value!r}, which snaps to neither 0 nor 1"),
    ("NotRootOfUnity", "eta z deviation",
     "row {eta} (generator value {z!r}) is {deviation:.3e} away from its nearest character"),
    # exchange-map classifier
    ("FixedPointViolation", "which residual",
     "step 1: image of {which} is not fixed (residual {residual:.3e})"),
    ("DeltaImageNotDelta", "j",
     "step 2: image of the point mass at {j} is not a point mass"),
    ("DeltaImageInconsistent", "j got expected",
     "step 2: point mass {j} maps to index {got}, expected {expected} = j * sigma(1) mod n",
     "Point masses map to point masses but not multiplicatively."),
    ("EtaNotCoprime", "eta n",
     "step 2: recovered index map slope {eta} shares a divisor with {n}"),
    ("BetaNotIdentityOrConjugation", "c beta_c",
     "step 3: scalar action maps {c!r} to {beta_c!r}, which is neither c nor conj(c)"),
    ("FinalSweepViolation", "witness residual",
     "step 4: a random signal violates the recovered form (residual {residual:.3e})"),
    # translation/modulation intertwiner classifier
    ("ZeroOperator", "", "operator is (numerically) zero"),
    ("EntryVanishes", "j ell",
     "table entry at row {ell}, column {j} vanishes; the canonical form has constant "
     "nonzero modulus"),
    ("PhaseOffLattice", "j deviation",
     "phase at index {j} is off the 2*pi/n lattice by {deviation:.3e} rad"),
    ("ReconstructionMismatch", "residual",
     "reconstructed table does not match the input (residual {residual:.3e})"),
    # torus kernel classifier
    ("NotUnimodular", "max_abs",
     "kernel sup-norm {max_abs!r} is not within tolerance of 1"),
    ("SnapFailure", "nearest deviation",
     "kernel is {deviation:.3e} away from its nearest character, frequency {nearest}"),
    ("CharacterEquationViolation", "xi report",
     "kernel at frequency {xi} violates the character equation "
     "(residual {report.max_residual:.3e})"),
)

globals().update((name, type(name, (ClassificationError,), {
    "__module__": __name__, "__doc__": doc[0] if doc else None,
    "fields": tuple(fields.split()), "template": template}))
    for name, fields, template, *doc in REJECTIONS)
