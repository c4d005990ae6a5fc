"""Structure theory of pencils with commuting coefficients.

Covers the intertwiner equation A M B = B M A for canonical singular
direct sums.  Its solutions are described once, by an integer label
matrix: entry (i, j) names the parameter that M[i, j] equals, and -1
marks an entry that is always zero.  The parameter count and the pattern
test read that matrix, and a brute-force vectorized solver cross-checks
it.  The module also covers the feasibility inequalities a commuting
pair's Kronecker multiplicities must satisfy, and the deterministic
equality-case construction of an invertible multiplier E making EA and EB
commute: minimal-basis transforms to the canonical form and one explicit
pattern matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import EqualityConditionFails, InvalidStructure, TransformUnavailable
from .kronecker import KroneckerStructure, canonical_transforms, staircase_structure
from .linalg import null_space, numerical_rank
from .pencil import Pencil

PATTERN_REL_TOL = 1e-8
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

    Returns the assertion outcome; False signals a numerical or logic
    failure, never a counterexample.
    """
    from .koszul import _require_commuting

    a, b, _ = _require_commuting(a, b)
    structure = staircase_structure(Pencil(a, b), tol)
    ok, _ = commuting_feasible(structure)
    return ok


def is_equality_case(s: KroneckerStructure) -> bool:
    """Whether every feasibility inequality holds with equality."""
    return all(t["lhs"] == t["rhs"] for t in _feasibility_terms(s))


# ---------------------------------------------------------------------------
# the equality-case multiplier


def _aligned_identity(size: int, small: int, big: int) -> np.ndarray:
    """0/1 matrix taking each small instance's columns whole into big-instance rows.

    Instances follow an identity walk, except that one which would straddle
    two big instances is placed twice, flush with the end of the first and
    at the start of the next.  Each instance pair then holds full diagonals
    of one Toeplitz band, and the matrix stays invertible.
    """
    q = np.zeros((size, size))
    for c0 in range(0, size, small):
        edge = (c0 // big + 1) * big
        for r0 in (c0,) if c0 + small <= edge else (edge - small, edge):
            q[r0 : r0 + small, c0 : c0 + small] = np.eye(small)
    return q


def multiplier_pattern_matrix(s: KroneckerStructure) -> np.ndarray:
    """The explicit pattern-conformant block permutation for the equality case.

    Identity blocks walk each minimal-index family one group along: the
    rows of row-family group i land on the columns of group i - 1, and the
    rows of column-family group i on the columns of group i + 1.  The
    equality case makes each pair square, and :func:`_aligned_identity`
    keeps every instance inside one Toeplitz band.  The last column-family
    rows close the corner on the last row-family columns with an
    anti-identity, which any instance grid reads as a Hankel pattern.
    """
    n = _require_square_singular(s)
    if not is_equality_case(s):
        raise EqualityConditionFails("structure multiplicities are not in the equality case")
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    spans = {}
    for axis in (0, 1):
        pos = 0
        for side, _, size, mult in _groups(s, axis):
            spans.setdefault((axis, side), []).append((pos, size, size * mult))
            pos += size * mult
    delta_rows, delta_cols = spans[0, "delta"], spans[1, "delta"]
    eps_rows, eps_cols = spans[0, "eps"], spans[1, "eps"]
    p = np.zeros((n, n), dtype=complex)
    for (r0, h, total), (c0, w, _) in [*zip(delta_rows[1:], delta_cols),
                                       *zip(eps_rows, eps_cols[1:])]:
        walk = _aligned_identity(total, w, h) if h >= w else _aligned_identity(total, h, w).T
        p[r0 : r0 + total, c0 : c0 + total] = walk
    (r0, _, total), (c0, _, _) = eps_rows[-1], delta_cols[-1]
    p[r0 : r0 + total, c0 : c0 + total] = np.fliplr(np.eye(total))
    return p


def construct_multiplier(p: Pencil, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Invertible E with EA and EB commuting, for equality-case pencils.

    The pencil's Kronecker form must consist of singular blocks only, with
    multiplicities in the equality case; otherwise
    :class:`EqualityConditionFails`.  With (S, T) from
    :func:`~pencillab.kronecker.canonical_transforms` of the balanced
    pencil (A, rho B), rho = |A|_F / |B|_F, and P the explicit pattern
    matrix, E = T P S; EA and EB commute exactly when EA and E (rho B) do.
    E is checked, so an ill-conditioned input surfaces as
    :class:`TransformUnavailable` rather than an unverified answer.
    """
    if not p.is_square:
        raise ValueError(f"multiplier construction needs a square pencil, got {p.shape}")
    n = p.rows
    structure = staircase_structure(p, tol)
    if not structure.singular_only:
        raise EqualityConditionFails(
            f"Kronecker form has regular blocks (jordan={structure.jordan}, "
            f"nilpotent={structure.nilpotent}); the construction covers singular blocks only"
        )
    if not is_equality_case(structure):
        raise EqualityConditionFails(
            "block multiplicities satisfy the feasibility inequalities only strictly; "
            "the explicit construction needs the equality case"
        )
    smat, tmat = canonical_transforms(p.balanced()[0], structure, tol)
    e = tmat @ multiplier_pattern_matrix(structure) @ smat
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


CONJECTURE_LABEL = "conjecture-level evidence"


@dataclass(frozen=True)
class MultiplierSearchResult:
    """Outcome of the randomized multiplier search (never a proof)."""

    found: bool
    multiplier: np.ndarray | None
    attempts: int
    evidence: str = CONJECTURE_LABEL


def search_multiplier(
    p: Pencil,
    tol: ToleranceConfig = DEFAULT_TOL,
    restarts: int = 200,
) -> MultiplierSearchResult:
    """Randomized search for an invertible E with EA, EB commuting.

    Samples the solution space of A E B = B E A; any invertible element
    works, because multiplying that relation by E gives the commutator.
    Output is conjecture-level evidence for the feasibility question, one
    way or the other; failure proves nothing.
    """
    if not p.is_square:
        raise ValueError(f"multiplier search needs a square pencil, got {p.shape}")
    n = p.rows
    dim, basis = intertwiner_space(p.a, p.b, tol)
    if dim == 0:
        return MultiplierSearchResult(found=False, multiplier=None, attempts=0)
    rng = np.random.default_rng(tol.rng_seed)
    scale_ab = max(p.norms[0] * p.norms[1], 1e-300)
    for attempt in range(1, restarts + 1):
        coeffs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        e = sum(c * m for c, m in zip(coeffs, basis))
        if numerical_rank(e, tol) != n:
            continue
        ea, eb = e @ p.a, e @ p.b
        comm = float(np.linalg.norm(ea @ eb - eb @ ea))
        norm_e = float(np.linalg.norm(e))
        if comm <= 1e-8 * max(norm_e * norm_e * scale_ab, 1e-300):
            return MultiplierSearchResult(found=True, multiplier=e, attempts=attempt)
    return MultiplierSearchResult(found=False, multiplier=None, attempts=restarts)
