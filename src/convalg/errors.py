"""Exception taxonomy for the classifiers.

Every rejection a classifier can produce is a distinct exception type whose
name identifies the failed recovery step, so a caught error doubles as a
counterexample report.  All of them derive from ClassificationError and
carry their diagnostic data both as attributes and in ``details``.
"""

from __future__ import annotations

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

    def __init__(self, message: str, **details: Any):
        super().__init__(message)
        self.details = details
        self.__dict__.update(details)


class AxiomViolation(ClassificationError):
    """A required axiom check failed; carries the failing report."""

    def __init__(self, message: str, report: Any):
        super().__init__(message, report=report)


# -- convolution-homomorphism classifier ------------------------------------

class RowNotHomomorphic(ClassificationError):
    def __init__(self, eta: int, value: complex, message: str | None = None):
        super().__init__(
            message or f"row {eta}: value at the identity column is {value!r}, "
                       "which snaps to neither 0 nor 1",
            eta=eta, value=value)


class NotRootOfUnity(ClassificationError):
    def __init__(self, eta: int, z: complex, deviation: float):
        super().__init__(
            f"row {eta} (generator value {z!r}) is {deviation:.3e} away from "
            f"its nearest character",
            eta=eta, z=z, deviation=deviation)


# -- exchange-map classifier -------------------------------------------------

class FixedPointViolation(ClassificationError):
    def __init__(self, which: str, residual: float):
        super().__init__(
            f"step 1: image of {which} is not fixed (residual {residual:.3e})",
            which=which, residual=residual)


class DeltaImageNotDelta(ClassificationError):
    def __init__(self, j: int):
        super().__init__(
            f"step 2: image of the point mass at {j} is not a point mass", j=j)


class DeltaImageInconsistent(ClassificationError):
    """Point masses map to point masses but not multiplicatively."""

    def __init__(self, j: int, got: int, expected: int):
        super().__init__(
            f"step 2: point mass {j} maps to index {got}, "
            f"expected {expected} = j * sigma(1) mod n",
            j=j, got=got, expected=expected)


class EtaNotCoprime(ClassificationError):
    def __init__(self, eta: int, n: int):
        super().__init__(
            f"step 2: recovered index map slope {eta} shares a divisor with {n}",
            eta=eta, n=n)


class BetaNotIdentityOrConjugation(ClassificationError):
    def __init__(self, c: complex, beta_c: complex):
        super().__init__(
            f"step 3: scalar action maps {c!r} to {beta_c!r}, "
            "which is neither c nor conj(c)",
            c=c, beta_c=beta_c)


class FinalSweepViolation(ClassificationError):
    def __init__(self, witness: Any, residual: float):
        super().__init__(
            f"step 4: a random signal violates the recovered form "
            f"(residual {residual:.3e})",
            witness=witness, residual=residual)


# -- translation/modulation intertwiner classifier ---------------------------

class ZeroOperator(ClassificationError):
    def __init__(self) -> None:
        super().__init__("operator is (numerically) zero")


class EntryVanishes(ClassificationError):
    def __init__(self, j: int, ell: int):
        super().__init__(
            f"table entry at row {ell}, column {j} vanishes; the canonical "
            "form has constant nonzero modulus",
            j=j, ell=ell)


class PhaseOffLattice(ClassificationError):
    def __init__(self, j: int, deviation: float):
        super().__init__(
            f"phase at index {j} is off the 2*pi/n lattice by {deviation:.3e} rad",
            j=j, deviation=deviation)


class ReconstructionMismatch(ClassificationError):
    def __init__(self, residual: float):
        super().__init__(
            f"reconstructed table does not match the input (residual {residual:.3e})",
            residual=residual)


# -- torus kernel classifier --------------------------------------------------

class NotUnimodular(ClassificationError):
    def __init__(self, max_abs: float):
        super().__init__(
            f"kernel sup-norm {max_abs!r} is not within tolerance of 1",
            max_abs=max_abs)


class SnapFailure(ClassificationError):
    def __init__(self, nearest: int, deviation: float):
        super().__init__(
            f"kernel is {deviation:.3e} away from its nearest character, "
            f"frequency {nearest}",
            nearest=nearest, deviation=deviation)


class CharacterEquationViolation(ClassificationError):
    def __init__(self, xi: int, report: Any):
        super().__init__(
            f"kernel at frequency {xi} violates the character equation "
            f"(residual {report.max_residual:.3e})",
            xi=xi, report=report)
