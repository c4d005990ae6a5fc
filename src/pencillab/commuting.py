"""Structure theory of pencils with commuting coefficients.

Covers the intertwiner equation A M B = B M A for canonical singular
direct sums.  Its solutions are described once, by an integer label
matrix: entry (i, j) names the parameter that M[i, j] equals, and -1
marks an entry that is always zero.  The parameter count and the pattern
test read that matrix, and a brute-force vectorized solver cross-checks
it.  The module also covers the feasibility inequalities a commuting
pair's Kronecker multiplicities must satisfy, and one deterministic
construction of an invertible multiplier E making EA and EB commute for
every feasible square singular-only structure: minimal-basis transforms
to the canonical form and the pattern at fixed generic integer
parameters.  On every such structure with n <= 12 the feasible ones were
exactly those whose pattern has a perfect matching (Hall 1935), and the
tests check this up to n = 10; that is measured evidence, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import InvalidStructure, TransformUnavailable
from .koszul import _require_commuting
from .kronecker import (KroneckerStructure, _singular_part, canonical_transforms,
                        staircase_structure)
from .linalg import null_space, numerical_rank
from .pencil import Pencil

PATTERN_REL_TOL = 1e-8
# seed of the fixed integer parameters of multiplier_pattern_matrix; no setting moves it
PATTERN_PARAMETER_SEED = 0
BRUTE_FORCE_MAX_DIM = 12


def _require_square_singular(s: KroneckerStructure) -> int:
    if not s.singular_only:
        raise InvalidStructure(
            f"intertwiner pattern covers singular blocks only, got jordan={s.jordan}, "
            f"nilpotent={s.nilpotent}"
        )
    if not s.is_square:
        raise InvalidStructure(
            f"intertwiner pattern needs a square structure, got {s.rows} x {s.cols}"
        )
    return s.rows


# ---------------------------------------------------------------------------
# the intertwiner pattern


@dataclass(frozen=True)
class IntertwinerPattern:
    """All solutions of A M B = B M A as one parameter map.

    ``labels[i, j]`` is the parameter that entry (i, j) equals, and -1
    marks an entry that is zero in every solution.
    """

    structure: KroneckerStructure
    labels: np.ndarray

    @property
    def parameter_count(self) -> int:
        return int(self.labels.max(initial=-1)) + 1


def _groups(s: KroneckerStructure, axis: int) -> list[tuple[str, int, int, int]]:
    """(side, index value, instance size, multiplicity) per group along one axis of M.

    M's rows follow the blocks' columns (d for L_d^T, e + 1 for L_e) and
    its columns follow the blocks' rows (d + 1 and e), in canonical order.
    """
    return [(side, value, value + extra, mult)
            for side, groups, extra in (("delta", s.row_minimal, axis),
                                        ("eps", s.col_minimal, 1 - axis))
            for value, mult in groups]


def _classify(row_side: str, ri: int, col_side: str, cj: int) -> str:
    """Pattern kind of one block, given the two group indices.

    The banded-Toeplitz blocks carry index-difference many parameters: the
    shift relations of the intertwining equation act from the top row down
    and from the bottom row up, truncating the band to offsets
    0..(difference-1); the brute-force solver confirms the count.
    """
    if row_side == "delta" and col_side == "delta":
        if cj == 0:
            return "free"
        if ri <= cj:
            return "zero"
        return "toeplitz"
    if row_side == "delta" and col_side == "eps":
        return "zero"
    if row_side == "eps" and col_side == "delta":
        if ri == 0 or cj == 0:
            return "free"
        return "hankel"
    # eps x eps
    if ri == 0:
        return "free"
    if ri >= cj:
        return "zero"
    return "toeplitz_t"


def _block_labels(kind: str, rows: int, cols: int) -> np.ndarray:
    """Parameter labels of one block, numbered from 0, with -1 for its zeros."""
    i, j = np.indices((rows, cols))
    if kind == "free":
        return i * cols + j
    if kind == "hankel":
        return i + j
    if kind == "zero":
        return np.full((rows, cols), -1)
    offset = i - j if kind == "toeplitz" else j - i
    return np.where((offset >= 0) & (offset <= abs(rows - cols)), offset, -1)


def intertwiner_pattern(s: KroneckerStructure) -> IntertwinerPattern:
    """Parameter map of the A M B = B M A solution space."""
    n = _require_square_singular(s)
    labels = np.full((n, n), -1)
    count = r0 = 0
    instances = [[(side, value, size) for side, value, size, mult in _groups(s, axis)
                  for _ in range(mult)] for axis in (0, 1)]
    for row_side, ri, height in instances[0]:
        c0 = 0
        for col_side, cj, width in instances[1]:
            if height and width:
                block = _block_labels(_classify(row_side, ri, col_side, cj), height, width)
                labels[r0 : r0 + height, c0 : c0 + width] = np.where(block >= 0, block + count, -1)
                count += int(block.max()) + 1
            c0 += width
        r0 += height
    return IntertwinerPattern(structure=s, labels=labels)


def pattern_parameter_count(s: KroneckerStructure) -> int:
    """Free parameters of the intertwiner pattern, by shape arithmetic."""
    return intertwiner_pattern(s).parameter_count


def matches_pattern(m, s: KroneckerStructure) -> bool:
    """Whether a matrix conforms to the intertwiner pattern of the structure.

    The matrix must already be expressed in the canonical block frame;
    no detection under unknown equivalence is attempted.  It conforms when
    it is close to its orthogonal projection onto the pattern, which
    replaces the entries of each label by their mean and zeroes the rest.
    """
    m = np.asarray(m, dtype=complex)
    labels = intertwiner_pattern(s).labels
    if m.shape != labels.shape:
        raise InvalidStructure(
            f"matrix shape {m.shape} does not match structure size {labels.shape[0]}"
        )
    inside = labels >= 0
    ids, values = labels[inside], m[inside]
    sums = np.bincount(ids, values.real) + 1j * np.bincount(ids, values.imag)
    projection = np.zeros_like(m)
    projection[inside] = (sums / np.bincount(ids))[ids]
    scale = max(float(np.linalg.norm(m)), 1e-300)
    return float(np.linalg.norm(m - projection)) <= PATTERN_REL_TOL * scale


# ---------------------------------------------------------------------------
# brute-force intertwiner solver


def intertwiner_space(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[int, list[np.ndarray]]:
    """Orthonormal basis of {M : A M B = B M A} by a vectorized nullspace.

    In row-major vec, vec(A M B) = (A kron B^T) vec(M), so the n^2 x n^2
    operator is A kron B^T - B kron A^T; matrices beyond n = 12 are
    refused to keep the dense solve bounded.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need square matrices of equal size, got {a.shape} and {b.shape}")
    n = a.shape[0]
    if n > BRUTE_FORCE_MAX_DIM:
        raise ValueError(
            f"matrix dimension {n} exceeds the n <= {BRUTE_FORCE_MAX_DIM} brute-force bound"
        )
    if n == 0:
        return 0, []
    basis_vectors = null_space(np.kron(a, b.T) - np.kron(b, a.T), tol)
    basis = [np.ascontiguousarray(basis_vectors[:, k].reshape(n, n)) for k in range(basis_vectors.shape[1])]
    return len(basis), basis


# ---------------------------------------------------------------------------
# feasibility of commuting Kronecker structures


def _feasibility_terms(structure: KroneckerStructure):
    """Each inequality of :func:`commuting_feasible`, as a record with its two sides."""
    for family, groups in (("row", structure.row_minimal), ("col", structure.col_minimal)):
        seen = dict(groups).get(0, 0)
        positive = [(v, m) for v, m in groups if v > 0]
        for i, (value, mult) in enumerate(positive, start=1):
            yield {"family": family, "group": i, "index": value, "multiplicity": mult,
                   "lhs": value * mult, "rhs": seen}
            seen += mult


def commuting_feasible(structure: KroneckerStructure) -> tuple[bool, list[dict]]:
    """Check the multiplicity inequalities a commuting pair must satisfy.

    Per family (row and column minimal indices, ascending, index-0 group
    first): index_i * mult_i <= mult_0 + ... + mult_{i-1}.  Returns every
    violated inequality.
    """
    violations = [t for t in _feasibility_terms(structure) if t["lhs"] > t["rhs"]]
    return not violations, violations


def verify_necessity(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Commuting coefficients must land on a feasible Kronecker structure.

    The inequalities of :func:`commuting_feasible` read only the minimal
    indices, which the compressions of ``kronecker._singular_part`` decide;
    the regular stage of the staircase, which decides Jordan sizes, never
    runs.  Returns the assertion outcome; False signals a numerical or logic
    failure, never a counterexample.
    """
    a, b, *_ = _require_commuting(a, b)
    col_minimal, row_minimal, *_ = _singular_part(Pencil(a, b), tol)
    return commuting_feasible(KroneckerStructure(col_minimal, row_minimal))[0]


def is_equality_case(s: KroneckerStructure) -> bool:
    """Whether every feasibility inequality holds with equality."""
    return all(t["lhs"] == t["rhs"] for t in _feasibility_terms(s))


# ---------------------------------------------------------------------------
# the multiplier


def multiplier_pattern_matrix(s: KroneckerStructure) -> np.ndarray:
    """The intertwiner pattern of a feasible structure at fixed generic integer parameters.

    Entry (i, j) is the value of the parameter that ``labels[i, j]`` of
    :func:`intertwiner_pattern` names, and 0 where the label is -1, so P
    solves A P B = B P A for the canonical pencil exactly.  The values are
    one seeded draw from 1..999 per parameter, by
    ``default_rng(PATTERN_PARAMETER_SEED)``.  det P is a polynomial in the
    parameters, so where it is not identically zero a random integer point
    avoids its zeros with high probability (Schwartz 1980; Zippel 1979);
    structured values such as p_k = k + 1 leave most such P singular.
    A structure outside the pattern's scope, or one that violates a
    feasibility inequality of :func:`commuting_feasible`, raises
    :class:`InvalidStructure`.
    """
    feasible, violations = commuting_feasible(s)
    if not feasible:
        raise InvalidStructure(f"structure violates the feasibility inequalities: {violations}")
    pattern = intertwiner_pattern(s)
    values = np.random.default_rng(PATTERN_PARAMETER_SEED).integers(
        1, 1000, pattern.parameter_count)
    p = np.zeros(pattern.labels.shape, dtype=complex)
    inside = pattern.labels >= 0
    p[inside] = values[pattern.labels[inside]]
    return p


def construct_multiplier(p: Pencil, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Invertible E with EA and EB commuting, for a feasible singular-only pencil.

    The pencil's Kronecker form must consist of singular blocks only, with
    multiplicities that satisfy :func:`commuting_feasible`; otherwise
    :class:`InvalidStructure`.  With (S, T) from
    :func:`~pencillab.kronecker.canonical_transforms` of the balanced
    pencil (A, rho B), rho = |A|_F / |B|_F, and P from
    :func:`multiplier_pattern_matrix`, E = T P S; EA and EB commute
    exactly when EA and E (rho B) do.  E is checked, so an ill-conditioned
    input, or a P that the fixed parameters happen to make singular,
    surfaces as :class:`TransformUnavailable` rather than an unverified
    answer.
    """
    if not p.is_square:
        raise ValueError(f"multiplier construction needs a square pencil, got {p.shape}")
    n = p.rows
    structure = staircase_structure(p, tol)
    pattern = multiplier_pattern_matrix(structure)
    smat, tmat = canonical_transforms(p.balanced()[0], structure, tol)
    e = tmat @ pattern @ smat
    ea, eb = e @ p.a, e @ p.b
    scale = max(float(np.linalg.norm(ea)) * float(np.linalg.norm(eb)), 1e-300)
    commutator = float(np.linalg.norm(ea @ eb - eb @ ea))
    rank = numerical_rank(e, tol)
    if rank != n or commutator > 1e-8 * scale:
        raise TransformUnavailable(
            f"multiplier check failed: rank {rank} of {n}, "
            f"relative commutator {commutator / scale:.3e}"
        )
    return e
