"""The linear pencil type: an ordered pair (A, B) representing A + lam*B."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidMatrix


def as_matrix(data) -> np.ndarray:
    """Validate and freeze a complex matrix.

    Accepts anything ``np.asarray`` understands, promotes to complex128,
    requires a 2-D shape and finite entries, and returns a read-only array
    so downstream code can share it without defensive copies.
    """
    m = np.array(data, dtype=complex, order="C")
    if m.ndim != 2:
        raise InvalidMatrix(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        bad = np.argwhere(~np.isfinite(m))
        i, j = bad[0]
        raise InvalidMatrix(f"non-finite entry at row {i}, column {j}")
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class Pencil:
    """An ordered pair of equal-shape complex matrices, read as A + lam*B."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", as_matrix(self.a))
        object.__setattr__(self, "b", as_matrix(self.b))
        if self.a.shape != self.b.shape:
            raise InvalidMatrix(
                f"pencil coefficients must share a shape, got {self.a.shape} and {self.b.shape}"
            )

    @classmethod
    def _of_valid(cls, a: np.ndarray, b: np.ndarray) -> "Pencil":
        """The pencil of two :func:`as_matrix` arrays of one shape, taken without copy or check."""
        pencil = object.__new__(cls)
        a.flags.writeable = b.flags.writeable = False
        pencil.__dict__.update(a=a, b=b)
        return pencil

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def at(self, lam: complex) -> np.ndarray:
        """Evaluate A + lam*B."""
        return self.a + lam * self.b

    def transposed(self) -> "Pencil":
        return Pencil._of_valid(self.a.T.copy(), self.b.T.copy())

    @cached_property
    def norms(self) -> tuple[float, float]:
        """(|A|_F, |B|_F), computed on first use; the frozen pencil cannot reassign it."""
        return float(np.linalg.norm(self.a)), float(np.linalg.norm(self.b))

    @cached_property
    def rho(self) -> float:
        """|A|_F / |B|_F (1 when either is zero): A + w (rho B) has both terms of one size."""
        na, nb = self.norms
        return na / nb if na > 0.0 and nb > 0.0 else 1.0

    def balanced(self) -> tuple["Pencil", float]:
        """(A, rho B) and rho."""
        return Pencil._of_valid(self.a, self.rho * self.b), self.rho

    def norm_scale(self) -> float:
        """A common magnitude for both coefficients, used to relativize cutoffs."""
        return max(self.norms)
