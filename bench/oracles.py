"""Checks of the program's answers that do not call the program.

Each check compares an output of ``pencillab`` either with an answer the
benchmark computed on its own (a known Kronecker form, a closed-form
joint spectrum, an LP over joint eigenvalues, residuals recomputed from
the returned vector) or with a property the theory guarantees.  Every
check returns an empty string when the output is right and a short
reason otherwise.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from scipy.optimize import linprog

SPECTRUM_REL_TOL = 1e-6
ISOTROPIC_REL_TOL = 1e-8


def expand(pairs) -> list[int]:
    """(index, multiplicity) pairs as a sorted multiset of indices."""
    return sorted(int(i) for i, m in pairs for _ in range(int(m)))


def _close(z: complex, w: complex, scale: float) -> bool:
    return abs(z - w) <= SPECTRUM_REL_TOL * scale


def kronecker_mismatch(expected, got) -> str:
    """Compare a recovered structure with the known one.

    ``expected`` is a :class:`gen.Structure`; ``got`` has the program's
    fields ``col_minimal``, ``row_minimal`` (index, multiplicity pairs),
    ``jordan`` ((size, eigenvalue) pairs) and ``nilpotent``.  Eigenvalues
    match within 1e-6 of the largest expected eigenvalue magnitude or of
    ``expected.unit``, whichever is larger, so a pencil whose B was
    rescaled is judged on its own scale.
    """
    for name, want, have in (
        ("column minimal indices", sorted(expected.col), expand(got.col_minimal)),
        ("row minimal indices", sorted(expected.row), expand(got.row_minimal)),
        ("nilpotent sizes", sorted(expected.nilpotent), sorted(int(s) for s in got.nilpotent)),
    ):
        if want != have:
            return f"{name}: expected {want}, got {have}"
    scale = max([abs(lam) for _, lam in expected.jordan] + [expected.unit])
    remaining = [(int(s), complex(lam)) for s, lam in got.jordan]
    for size, lam in expected.jordan:
        hit = next((i for i, (s, mu) in enumerate(remaining)
                    if s == size and _close(lam, mu, scale)), None)
        if hit is None:
            return f"Jordan block {size} at {lam:.6g} not recovered (got {remaining})"
        remaining.pop(hit)
    if remaining:
        return f"unexpected Jordan blocks {remaining}"
    return ""


def _distinct(points, scale: float) -> list[tuple[complex, complex]]:
    out: list[tuple[complex, complex]] = []
    for p in points:
        if not any(_close(p[0], q[0], scale) and _close(p[1], q[1], scale) for q in out):
            out.append(p)
    return out


def spectrum_mismatch(expected, got) -> str:
    """Compare a joint spectrum, as a set of points in C^2, with the closed form.

    Points match within 1e-6 of the largest coordinate magnitude of the
    closed form (at least 1).
    """
    expected = [(complex(x), complex(y)) for x, y in expected]
    got = [(complex(x), complex(y)) for x, y in got]
    scale = max([1.0] + [max(abs(x), abs(y)) for x, y in expected])
    want = _distinct(expected, scale)
    have = _distinct(got, scale)
    if len(have) != len(got):
        return f"{len(got) - len(have)} repeated points in {got}"
    for p in want:
        hit = next((i for i, q in enumerate(have)
                    if _close(p[0], q[0], scale) and _close(p[1], q[1], scale)), None)
        if hit is None:
            return f"point ({p[0]:.6g}, {p[1]:.6g}) missing"
        have.pop(hit)
    if have:
        return f"extra points {have}"
    return ""


def hull_contains_origin(d1, d2, min_weight: float = 0.0) -> bool:
    """Whether 0 is a convex combination of the joint eigenvalues (d1_i, d2_i).

    For a doubly commuting (normal) pair these points generate the joint
    numerical range, so this LP decides the origin-in-hull question
    exactly: find w >= ``min_weight`` with sum w = 1 and
    sum w_i (d1_i, d2_i) = 0.
    """
    d1 = np.asarray(d1, dtype=complex)
    d2 = np.asarray(d2, dtype=complex)
    rows = np.vstack([d1.real, d1.imag, d2.real, d2.imag, np.ones(d1.size)])
    rhs = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    result = linprog(np.zeros(d1.size), A_eq=rows, b_eq=rhs, bounds=(min_weight, None),
                     method="highs")
    if result.status not in (0, 2):
        raise RuntimeError(f"hull LP ended with status {result.status}: {result.message}")
    return result.status == 0


def hull_mismatch(verdict: str, d1, d2) -> str:
    """Compare an origin-in-hull verdict on a normal pair with the LP."""
    inside = hull_contains_origin(d1, d2)
    if (verdict in ("inside", "boundary")) != inside:
        return f"hull verdict {verdict!r}, but the LP over joint eigenvalues says inside={inside}"
    return ""


def isotropic_mismatch(x, a, b) -> str:
    """Recompute |x*Ax| / |A|_F and |x*Bx| / |B|_F for a claimed isotropic unit vector."""
    x = np.asarray(x, dtype=complex)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    norm = float(np.linalg.norm(x))
    if abs(norm - 1.0) > 1e-9:
        return f"certificate vector has norm {norm:.12g}, not 1"
    for name, m in (("A", a), ("B", b)):
        residual = abs(complex(x.conj() @ m @ x))
        bound = ISOTROPIC_REL_TOL * float(np.linalg.norm(m))
        if residual > bound:
            return f"|x*{name}x| = {residual:.3e} exceeds {bound:.3e}"
    return ""


def feasibility_mismatch(col, row) -> str:
    """The multiplicity inequalities every commuting pair's structure obeys.

    Per family, with the index-0 multiplicity m_0 and the positive indices
    v_1 < v_2 < ... of multiplicities m_1, m_2, ...:
    v_i m_i <= m_0 + ... + m_{i-1}.
    """
    for family, indices in (("column", col), ("row", row)):
        counts = Counter(int(i) for i in indices)
        seen = counts.pop(0, 0)
        for value in sorted(counts):
            if value * counts[value] > seen:
                return f"{family} index {value} x{counts[value]} exceeds {seen}"
            seen += counts[value]
    return ""
