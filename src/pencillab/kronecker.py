"""Kronecker canonical structure of matrix pencils.

Block builders, assembly of canonical pencils, random equivalence
scrambling, and the deterministic staircase recovery of the invariants:
Van Dooren's column compressions of (B, A) split off the column minimal
indices and the chains at infinity, the same compressions of the
transposed remainder split off the row minimal indices, and one QZ of the
square regular block that remains gives the finite eigenvalue clusters
(:func:`~pencillab.linalg.disc_clusters`), whose Jordan chains come from
the per-point staircase of compressions of that block.
The staircase recovers structure only; for singular-only structures,
:func:`canonical_transforms` builds the equivalence transforms to the
canonical form from minimal polynomial bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import InvalidStructure, RankDecisionUnstable, TransformUnavailable
from .linalg import (
    RANK_GUARD,
    TINY,
    disc_clusters,
    eigenvalue_discs,
    node_stack,
    numerical_rank,
    rank_cutoff,
    rank_decision,
    singular_values,
    svd,
)
from .pencil import Pencil, as_matrix

# relative gap within which structures_match takes two Jordan eigenvalues as one
EIGENVALUE_MATCH_REL_TOL = 1e-6

# ---------------------------------------------------------------------------
# canonical blocks


def build_block(kind: str, size: int, eigenvalue: complex | None = None) -> Pencil:
    """One canonical Kronecker block as a pencil.

    kind is one of ``"L"`` (size x (size+1) column-minimal block, size >= 0),
    ``"L_transpose"`` ((size+1) x size row-minimal block, size >= 0),
    ``"jordan"`` (size >= 1, needs ``eigenvalue``) or ``"nilpotent"``
    (size >= 1).  Size-0 L blocks are the degenerate 0x1 / 1x0 shapes.
    """
    if kind == "L":
        if size < 0:
            raise InvalidStructure("L block needs size >= 0")
        a = np.zeros((size, size + 1), dtype=complex)
        b = np.zeros((size, size + 1), dtype=complex)
        for i in range(size):
            a[i, i + 1] = 1.0
            b[i, i] = 1.0
        return Pencil(a, b)
    if kind == "L_transpose":
        p = build_block("L", size)
        return p.transposed()
    if kind == "jordan":
        if size < 1:
            raise InvalidStructure("jordan block needs size >= 1")
        if eigenvalue is None:
            raise InvalidStructure("jordan block needs an eigenvalue")
        a = np.eye(size, dtype=complex) * complex(eigenvalue) + np.diag(
            np.ones(size - 1, dtype=complex), 1
        )
        return Pencil(a, np.eye(size, dtype=complex))
    if kind == "nilpotent":
        if size < 1:
            raise InvalidStructure("nilpotent block needs size >= 1")
        b = np.diag(np.ones(size - 1, dtype=complex), 1)
        return Pencil(np.eye(size, dtype=complex), b)
    raise InvalidStructure(f"unknown block kind {kind!r}")


def direct_sum(pencils) -> Pencil:
    """Block-diagonal direct sum of pencils, degenerate shapes included."""
    pencils = list(pencils)
    rows = sum(p.rows for p in pencils)
    cols = sum(p.cols for p in pencils)
    a = np.zeros((rows, cols), dtype=complex)
    b = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for p in pencils:
        a[r : r + p.rows, c : c + p.cols] = p.a
        b[r : r + p.rows, c : c + p.cols] = p.b
        r += p.rows
        c += p.cols
    return Pencil(a, b)


# ---------------------------------------------------------------------------
# structure description


def _merge_indexed(pairs) -> tuple[tuple[int, int], ...]:
    merged: dict[int, int] = {}
    for idx, mult in pairs:
        idx = int(idx)
        mult = int(mult)
        if idx < 0:
            raise InvalidStructure(f"minimal index must be >= 0, got {idx}")
        if mult < 1:
            raise InvalidStructure(f"multiplicity must be >= 1, got {mult}")
        merged[idx] = merged.get(idx, 0) + mult
    return tuple(sorted(merged.items()))


@dataclass(frozen=True)
class KroneckerStructure:
    """Multiset description of a pencil's Kronecker canonical form.

    ``col_minimal`` and ``row_minimal`` hold (index, multiplicity) pairs
    sorted ascending; ``jordan`` holds (size, eigenvalue) pairs for the
    finite regular part (the block parameter, i.e. the pencil determinant
    vanishes at minus the eigenvalue); ``nilpotent`` holds the sizes of
    the infinite-eigenvalue blocks.
    """

    col_minimal: tuple[tuple[int, int], ...] = ()
    row_minimal: tuple[tuple[int, int], ...] = ()
    jordan: tuple[tuple[int, complex], ...] = ()
    nilpotent: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "col_minimal", _merge_indexed(self.col_minimal))
        object.__setattr__(self, "row_minimal", _merge_indexed(self.row_minimal))
        jordan = []
        for size, lam in self.jordan:
            if int(size) < 1:
                raise InvalidStructure(f"jordan size must be >= 1, got {size}")
            jordan.append((int(size), complex(lam)))
        jordan.sort(key=lambda t: (t[1].real, t[1].imag, t[0]))
        object.__setattr__(self, "jordan", tuple(jordan))
        nil = tuple(sorted(int(s) for s in self.nilpotent))
        if any(s < 1 for s in nil):
            raise InvalidStructure("nilpotent sizes must be >= 1")
        object.__setattr__(self, "nilpotent", nil)

    @property
    def rows(self) -> int:
        return (
            sum(e * m for e, m in self.col_minimal)
            + sum((d + 1) * m for d, m in self.row_minimal)
            + sum(s for s, _ in self.jordan)
            + sum(self.nilpotent)
        )

    @property
    def cols(self) -> int:
        return (
            sum((e + 1) * m for e, m in self.col_minimal)
            + sum(d * m for d, m in self.row_minimal)
            + sum(s for s, _ in self.jordan)
            + sum(self.nilpotent)
        )

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def singular_only(self) -> bool:
        return not self.jordan and not self.nilpotent


def assemble(structure: KroneckerStructure) -> Pencil:
    """Canonical block-diagonal pencil for a structure.

    Block order: row-minimal blocks by ascending index, column-minimal
    blocks by ascending index, Jordan blocks, nilpotent blocks.  The
    singular-first ordering is what the commuting-structure module indexes
    against positionally.
    """
    blocks: list[Pencil] = []
    for d, mult in structure.row_minimal:
        blocks.extend(build_block("L_transpose", d) for _ in range(mult))
    for e, mult in structure.col_minimal:
        blocks.extend(build_block("L", e) for _ in range(mult))
    for size, lam in structure.jordan:
        blocks.append(build_block("jordan", size, lam))
    for size in structure.nilpotent:
        blocks.append(build_block("nilpotent", size))
    if not blocks:
        return Pencil(np.zeros((0, 0), dtype=complex), np.zeros((0, 0), dtype=complex))
    return direct_sum(blocks)


def structures_match(s1: KroneckerStructure, s2: KroneckerStructure) -> bool:
    """Structure equality with eigenvalues compared within ``EIGENVALUE_MATCH_REL_TOL``."""
    if s1.col_minimal != s2.col_minimal or s1.row_minimal != s2.row_minimal:
        return False
    if s1.nilpotent != s2.nilpotent:
        return False
    if len(s1.jordan) != len(s2.jordan):
        return False
    remaining = list(s2.jordan)
    for size, lam in s1.jordan:
        hit = None
        for i, (size2, lam2) in enumerate(remaining):
            if size == size2 and abs(lam - lam2) <= EIGENVALUE_MATCH_REL_TOL * max(1.0, abs(lam)):
                hit = i
                break
        if hit is None:
            return False
        remaining.pop(hit)
    return True


# ---------------------------------------------------------------------------
# random equivalence transforms


@dataclass(frozen=True)
class EquivalencePair:
    """Left/right transforms (S, T) of a strict pencil equivalence."""

    s: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", as_matrix(self.s))
        object.__setattr__(self, "t", as_matrix(self.t))
        for name, m in (("s", self.s), ("t", self.t)):
            if m.shape[0] != m.shape[1]:
                raise InvalidStructure(f"transform {name} must be square, got {m.shape}")
            if m.shape[0] and numerical_rank(m) != m.shape[0]:
                raise InvalidStructure(f"transform {name} is numerically singular")

    def apply(self, p: Pencil) -> Pencil:
        return Pencil(self.s @ p.a @ self.t, self.s @ p.b @ self.t)


def random_well_conditioned(n: int, rng: np.random.Generator, max_cond: float = 100.0) -> np.ndarray:
    """Random complex matrix with condition number at most max_cond.

    Built as unitary * diagonal * unitary with log-uniform diagonal spread.
    """
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    half = np.log(max_cond) / 2.0
    diag = np.exp(rng.uniform(-half, half, n))
    return q1 @ (diag[:, None] * q2)


def scramble(p: Pencil, seed: int, max_cond: float = 100.0) -> tuple[Pencil, EquivalencePair]:
    """Hide a pencil behind random well-conditioned transforms.

    Returns (S^-1 (A + lam B) T^-1, (S, T)); applying the returned pair to
    the scrambled pencil recovers the input.
    """
    rng = np.random.default_rng(seed)
    s = random_well_conditioned(p.rows, rng, max_cond)
    t = random_well_conditioned(p.cols, rng, max_cond)
    a = np.linalg.solve(s, np.linalg.solve(t.T, p.a.T).T)
    b = np.linalg.solve(s, np.linalg.solve(t.T, p.b.T).T)
    return Pencil(a, b), EquivalencePair(s, t)


# ---------------------------------------------------------------------------
# staircase rank decisions


def _staircase_rank(sigma, shape, tol: ToleranceConfig, context: str, scale: float = 0.0) -> int:
    """Numerical rank, from the singular values of a matrix of ``shape``, that refuses to guess.

    ``scale`` anchors the cutoff to the ambient problem magnitude, so a
    shifted matrix that degenerates to pure rounding noise is still read
    as rank deficient.  A singular value within a factor ``RANK_GUARD`` of
    the cutoff means the decision is not trustworthy at this tolerance,
    which the staircase reports rather than silently guessing.
    """
    rank, thr, margin = rank_decision(sigma, shape, scale, tol)
    if margin <= RANK_GUARD:
        s = float(sigma[(sigma >= thr / RANK_GUARD) & (sigma <= thr * RANK_GUARD)][0])
        raise RankDecisionUnstable(
            f"{context}: singular value {s:.3e} within a factor {RANK_GUARD:g} "
            f"of cutoff {thr:.3e}",
            sigma=s,
            threshold=float(thr),
        )
    return int(rank)


def normal_rank(p: Pencil, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[int, float]:
    """Normal rank of A + lam B and the rank margin at the node deciding it."""
    if p.a.size == 0:
        return 0, float("inf")
    _, stack, anchors = node_stack(p)
    ranks, cutoffs, margins = rank_decision(singular_values(stack), stack.shape[1:], anchors, tol)
    k = _rank_node(ranks, margins)
    if k is None:
        k = int(np.argmax(margins))
        raise RankDecisionUnstable(
            f"normal rank sweep: every node has a singular value within a factor {RANK_GUARD:g} "
            f"of its cutoff; the best margin is {margins[k]:.3g} at cutoff {cutoffs[k]:.3e}",
            threshold=float(cutoffs[k]),
        )
    return int(ranks[k]), float(margins[k])


def _rank_node(ranks: np.ndarray, margins: np.ndarray) -> int | None:
    """The clean node (margin above ``RANK_GUARD``) of largest rank and widest margin, or None."""
    clean = margins > RANK_GUARD
    if not clean.any():
        return None
    return int(np.argmax(np.where(clean & (ranks == ranks[clean].max()), margins, 0.0)))


# ---------------------------------------------------------------------------
# polynomial kernel vectors


def _toeplitz_resultant(p: Pencil, k: int, rho: float = 1.0) -> np.ndarray:
    """Coefficient matrix of degree-k polynomial kernel vectors.

    x(lam) = x_0 + ... + x_k lam^k solves (A + lam B) x(lam) = 0 exactly
    when the stacked convolution system with A on the diagonal and B
    shifted below (plus the trailing B x_k = 0 row) annihilates the
    coefficient stack.  The B blocks are scaled by ``rho``: that of the pencil A + w (rho B).
    """
    m, n = p.shape
    t = np.zeros(((k + 2) * m, (k + 1) * n), dtype=complex)
    for j in range(k + 1):
        t[j * m : (j + 1) * m, j * n : (j + 1) * n] = p.a
        t[(j + 1) * m : (j + 2) * m, j * n : (j + 1) * n] = rho * p.b
    return t


@dataclass(frozen=True)
class PolynomialKernel:
    """A kernel vector x(w) = x_0 + ... + x_k w^k of A + w (rho B), w = lam / rho.

    ``coefficients`` stacks x_0, ..., x_k into a unit vector x of the
    degree-k Toeplitz resultant T_k of (A, rho B), ``residual`` is |T_k x|
    and ``margin`` the factor by which sigma_min(T_k) lies below T_k's rank
    cutoff.  It proves the pencil singular (Van Dooren 1979).
    """

    degree: int
    coefficients: np.ndarray
    residual: float
    margin: float


def _kernel_walk(p: Pencil, tol: ToleranceConfig, start: int = 0):
    """The polynomial kernel vectors of a pencil, one per degree k = start, ..., n that has one.

    T_k has one, its last right singular vector, when sigma_min(T_k) lies
    below the rank cutoff, anchored at the balanced pencil's scale, by more
    than ``RANK_GUARD``.  From start = 0, the first is of the least column
    minimal index.
    """
    rho, scale = p.rho, max(p.norms[0], p.rho * p.norms[1])
    for k in range(start, p.cols + 1):
        t = _toeplitz_resultant(p, k, rho)
        _, sigma, vh = np.linalg.svd(t, full_matrices=False)
        ratio = sigma[-1] / max(rank_cutoff(sigma[0], t.shape, scale, tol), TINY)
        if ratio * RANK_GUARD < 1.0:
            x = vh[-1].conj()
            yield PolynomialKernel(k, x, float(np.linalg.norm(t @ x)),
                                   1.0 / ratio if ratio else math.inf)


def _least_kernel(p: Pencil, tol: ToleranceConfig) -> PolynomialKernel:
    """The first kernel of :func:`_kernel_walk`, whose absence sigma_n sweeps report as unstable."""
    kernel = next(_kernel_walk(p, tol), None)
    if kernel is None:
        raise RankDecisionUnstable(
            f"singularity sweep: sigma_n is negligible at every node, but no Toeplitz resultant "
            f"of degree <= {p.rows} has sigma_min below its cutoff by a factor {RANK_GUARD:g}")
    return kernel


# ---------------------------------------------------------------------------
# the staircase


def _compressions(e: np.ndarray, f: np.ndarray, tol: ToleranceConfig, context: str, scale: float):
    """Column compressions of E + mu F down to an E of full column rank.

    Step i takes the kernel of the trailing block of E, of dimension nu_i,
    rotates it to the front of E and F, and compresses the rows of F on
    those columns to its rank mu_i; the rows and columns left over form the
    next trailing block (Van Dooren, LAA 1979; Beelen & Van Dooren, LAA
    1988).  The staircase ends nu_i - mu_i blocks L_(i-1) and
    mu_i - nu_(i+1) Jordan blocks of size i at mu = 0 at step i, which
    needs nu_i >= mu_i >= nu_(i+1); run on (B, A) and then on the
    transposed remainder, it splits off both singular parts and the
    infinite chains in the order GUPTRI uses (Demmel & Kagstrom, ACM TOMS
    1993).  Returns (column minimal indices, Jordan sizes at mu = 0, the
    trailing E and F, and the Frobenius norm of every singular value set
    to zero, the backward error of the compressions).
    """
    shape = e.shape
    nus: list[int] = []
    mus: list[int] = []
    dropped = 0.0
    while True:
        u, sigma, vh = np.linalg.svd(e)
        r = _staircase_rank(sigma, shape, tol, f"{context} step {len(nus) + 1} kernel", scale)
        nus.append(e.shape[1] - r)
        if not nus[-1]:
            break
        v = vh.conj().T
        u1, sigma1, _ = np.linalg.svd(f @ v[:, r:])
        mus.append(_staircase_rank(sigma1, shape, tol, f"{context} step {len(nus)} rows", scale))
        dropped += float(np.sum(sigma[r:] ** 2) + np.sum(sigma1[mus[-1] :] ** 2))
        rows = u1[:, mus[-1] :].conj().T
        e, f = rows @ (u[:, :r] * sigma[:r]), rows @ (f @ v[:, :r])
    if any(nu < mu or mu < nxt for nu, mu, nxt in zip(nus, mus, nus[1:])):
        raise RankDecisionUnstable(f"{context}: kernel dimensions {nus} and ranks {mus} "
                                   "do not form a staircase")
    minimal = tuple((i, nu - mu) for i, (nu, mu) in enumerate(zip(nus, mus)) if nu > mu)
    chains = [i + 1 for i, (mu, nxt) in enumerate(zip(mus, nus[1:])) for _ in range(mu - nxt)]
    return minimal, chains, e, f, np.sqrt(dropped)


def _chain_sizes(
    a0: np.ndarray, bc: np.ndarray, cap: int, tol: ToleranceConfig, context: str,
    scale: float = 0.0,
) -> list[int]:
    """Block sizes at one point from Van Dooren's staircase (LAA 1979) on n x n compressions.

    With A0 = U S V* of rank r, N0 = V[:, r:] spans its kernel (dimension
    d0) and Q = U[:, r:] its cokernel; E_k spans the last members x_k of
    the chains A0 x_0 = 0, A0 x_j = -B x_(j-1), from E_0 = N0.  A chain
    extends exactly when Q* B x_(k-1) = 0, so step k adds
    d0 - rank(Q* B E_(k-1)) to the nullity of the (k+1)m x (k+1)n chain
    system, and E_k = [N0, orth(A0^+ B E_(k-1) K)] with K spanning the
    kernel of Q* B E_(k-1).  A0^+ maps into the complement of N0, so E_k
    needs no re-orthogonalization, and B is invertible on a regular block,
    so A0^+ B E_(k-1) K keeps full column rank.  Cutoffs anchor at
    ``scale`` and at the size of the chain system.
    """
    m, n = a0.shape
    u, sigma, vh = np.linalg.svd(a0)
    r = _staircase_rank(sigma, (m, n), tol, f"{context} chain k=0", scale)
    d0 = count = n - r
    kernel0 = chain_ends = vh[r:].conj().T
    cokernel = u[:, r:].conj().T
    counts_ge: list[int] = []
    while count > 0:
        counts_ge.append(count)
        k = len(counts_ge)
        if k > cap:
            raise RankDecisionUnstable(f"{context}: chain sequence exceeded the bound {cap}")
        shape = ((k + 1) * m, (k + 1) * n)
        images = bc @ chain_ends
        _, s, blocked_vh = np.linalg.svd(cokernel @ images)
        rank = _staircase_rank(s, shape, tol, f"{context} chain k={k}", scale)
        count = d0 - rank
        if count > 0:
            extended = images @ blocked_vh[rank:].conj().T
            steps = vh[:r].conj().T @ ((u[:, :r].conj().T @ extended) / sigma[:r, None])
            chain_ends = np.hstack([kernel0, np.linalg.qr(steps)[0]])
    counts_ge.append(0)
    return [j + 1 for j, c in enumerate(counts_ge[:-1]) for _ in range(c - counts_ge[j + 1])]


def staircase_structure(p: Pencil, tol: ToleranceConfig = DEFAULT_TOL) -> KroneckerStructure:
    """Kronecker invariants of a pencil (structure only, no transforms).

    Column compressions of (B, A) split off the column minimal indices and
    the chains at infinity; the same compressions of the transposed
    remainder split off the row minimal indices (:func:`_compressions`)
    unless it is square, hence regular, as its E has full column rank.
    What remains must be a square regular block whose B is invertible: one
    QZ of it (:func:`~pencillab.linalg.eigenvalue_discs`, with discs
    widened to the compressions' backward error) gives the finite
    eigenvalue clusters, and :func:`_chain_sizes` at each cluster's mean
    gives its Jordan sizes.  Chains in the left run, a remainder that is
    not square, a cluster at infinity or block sizes that do not total the
    regular block raise :class:`RankDecisionUnstable`.  The pipeline makes
    no random draw.

    Every stage runs on the balanced pencil A + w (rho B) with
    rho = |A|_F / |B|_F, whose eigenvalues are w = lam / rho, so rank
    cutoffs and eigenvalue distances follow the pencil's own scale: the
    structure of (A, cB) is recovered as that of (A, B) with every finite
    eigenvalue divided by c.
    """
    p, rho = p.balanced()
    scale = p.norm_scale()
    col_minimal, nilpotent, e, f, dropped = _compressions(p.b, p.a, tol, "columns", scale)
    row_minimal, left_chains, e, f, dropped_left = (), [], e.T, f.T, 0.0
    if e.shape[0] != e.shape[1]:
        row_minimal, left_chains, e, f, dropped_left = _compressions(e, f, tol, "rows", scale)
    g = len(e)
    if left_chains or e.shape != (g, g):
        raise RankDecisionUnstable(
            f"the row compressions left chains {left_chains} and a {e.shape} remainder, "
            "not a square regular block"
        )
    a, b = f.T, e.T
    spectrum = disc_clusters(*eigenvalue_discs(a, b, error=np.hypot(dropped, dropped_left)))
    if spectrum.infinite:
        raise RankDecisionUnstable(f"{spectrum.infinite} eigenvalues of the regular block "
                                   "cluster at infinity")
    jordan: list[tuple[int, complex]] = []
    for lam in spectrum.values:
        sizes = _chain_sizes(a + lam * b, b, g, tol, f"structure at {lam:.6g}",
                             scale=scale * max(1.0, abs(lam)))
        jordan.extend((size, -lam) for size in sizes)
    total = sum(size for size, _ in jordan)
    if total != g:
        raise RankDecisionUnstable(
            f"finite regular structure unresolved: block sizes at {len(spectrum.values)} "
            f"points total {total}, not {g}"
        )
    return KroneckerStructure(
        col_minimal=col_minimal,
        row_minimal=row_minimal,
        jordan=tuple((size, rho * lam) for size, lam in jordan),
        nilpotent=tuple(nilpotent),
    )


# ---------------------------------------------------------------------------
# singularity decision


@dataclass(frozen=True)
class SingularityEvidence:
    """Singularity verdict of a square pencil, with the node lam* and sigma_min(A + lam* B).

    Regular: lam* has the widest sigma_min-to-cutoff factor, and sigma_min
    bounds regularity: any (E, F) with |E|_2 + |lam*| |F|_2 < sigma_min
    keeps A + E + lam* (B + F) invertible (Byers, He & Mehrmann 1998).
    Singular: ``kernel`` proves it; lam* is the clean node of the largest
    rank, else the widest factor.  ``normal_rank`` is the rank at lam* if
    its singular values all clear the cutoff by more than ``RANK_GUARD``
    (None otherwise), and ``rank_margin`` that factor.
    """

    singular: bool
    normal_rank: int | None
    rank_margin: float
    node_count: int
    deciding_node: complex
    sigma_min: float
    kernel: PolynomialKernel | None = None

    def __bool__(self) -> bool:
        return self.singular


def is_singular(p: Pencil, tol: ToleranceConfig = DEFAULT_TOL) -> SingularityEvidence:
    """Decide whether det(A + lam B) vanishes identically, with a certificate either way.

    One values-only batched SVD of :func:`~pencillab.linalg.node_stack`
    reads sigma_n at each node against its rank cutoff
    (:func:`_sweep_verdict`): regular when some node has sigma_n above
    ``RANK_GUARD`` times the cutoff, singular when every node has sigma_n
    below the cutoff over ``RANK_GUARD`` and :func:`_kernel_walk` finds a
    polynomial kernel vector, :class:`RankDecisionUnstable` otherwise.
    n + 1 nodes decide: a regular pencil's determinant has degree at most
    n, so some node has full rank, while a singular pencil loses rank at
    every node and has a kernel vector of degree below n (Van Dooren 1979).
    """
    if not p.is_square:
        raise ValueError(f"singularity is defined for square pencils, got {p.shape}")
    if not p.rows:
        return SingularityEvidence(False, 0, float("inf"), 0, 0j, float("inf"))
    return _sweep_verdict(p, node_stack(p), tol)


def _sweep_verdict(p: Pencil, sweep, tol: ToleranceConfig) -> SingularityEvidence:
    """The verdict of :func:`is_singular` on a (nodes, stack, anchors) sweep of a square pencil."""
    nodes, stack, anchors = sweep
    n = p.rows
    sigma = singular_values(stack)
    cutoffs = rank_cutoff(sigma[:, 0], (n, n), anchors, tol)
    ratios = sigma[:, -1] / np.maximum(cutoffs, TINY)
    k = int(np.argmax(ratios))
    if ratios[k] > RANK_GUARD:  # every singular value at lam* clears the cutoff by ratios[k]
        return SingularityEvidence(False, n, float(ratios[k]), len(nodes), complex(nodes[k]),
                                   float(sigma[k, -1]))
    if ratios[k] * RANK_GUARD >= 1.0:
        raise RankDecisionUnstable(f"singularity sweep: the largest sigma_n, {sigma[k, -1]:.3e}, "
                                   f"lies within a factor {RANK_GUARD:g} of its cutoff "
                                   f"{cutoffs[k]:.3e}", sigma=float(sigma[k, -1]),
                                   threshold=float(cutoffs[k]))
    kernel = _least_kernel(p, tol)
    ranks, _, margins = rank_decision(sigma, (n, n), anchors, tol)
    clean = _rank_node(ranks, margins)
    k = k if clean is None else clean
    return SingularityEvidence(True, None if clean is None else int(ranks[k]), float(margins[k]),
                               len(nodes), complex(nodes[k]), float(sigma[k, -1]), kernel)


# ---------------------------------------------------------------------------
# equivalence transforms to a known canonical form


def _minimal_basis(p: Pencil, groups) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of a right minimal basis of A + lam B, as canonical L-block columns.

    At each minimal index k the kernel of the degree-k resultant has the
    known dimension sum over e <= k of mult_e (k + 1 - e), so its trailing
    right singular vectors span it.  Removing the span of the shifts
    lam^j x(lam) of the lower-degree basis vectors leaves the new degree-k
    vectors (Forney 1975).  A vector x_0 + ... + x_k lam^k becomes the
    columns (-1)^j x_j of one L_k block.  Returns those columns and a mask
    of the ones other than each block's last.
    """
    n = p.cols
    basis: list[tuple[int, np.ndarray]] = []
    for k, mult in groups:
        nullity = sum(m * (k + 1 - e) for e, m in groups if e <= k)
        null = svd(_toeplitz_resultant(p, k))[2][:, (k + 1) * n - nullity :]
        shifts = [np.pad(x, (j * n, (k - e - j) * n)) for e, x in basis for j in range(k - e + 1)]
        if shifts:
            q = np.linalg.qr(np.array(shifts).T)[0]
            null = null - q @ (q.conj().T @ null)
        basis.extend((k, x) for x in svd(null)[0][:, :mult].T)
    columns = [(-1) ** j * x[j * n : (j + 1) * n] for e, x in basis for j in range(e + 1)]
    keep = [j < e for e, _ in basis for j in range(e + 1)]
    return np.array(columns, dtype=complex).reshape(len(columns), n).T, np.array(keep, dtype=bool)


def canonical_transforms(
    p: Pencil, structure: KroneckerStructure, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Invertible (S, T) with S (A + lam B) T equal to ``assemble(structure)``.

    For square structures of singular blocks only.  A right minimal basis
    gives T's L-block columns and, times B, the L-block columns of S^-1; a
    left minimal basis gives S's L^T-block rows and, times B, the L^T-block
    rows of T^-1.  The pseudo-inverses of those two products give S's L
    rows and T's L^T columns, and one generalized Sylvester solve removes
    the remaining coupling of the L rows with the L^T columns (Demmel &
    Kagstrom 1993).  The result is checked, so a
    structure that is not the pencil's raises :class:`TransformUnavailable`.
    """
    n = structure.rows
    if not (structure.singular_only and structure.is_square and p.shape == (n, n)):
        raise InvalidStructure(
            f"transforms need a square singular-only structure of the pencil's size {p.shape}"
        )
    target = assemble(structure)
    t_l, keep_l = _minimal_basis(p, structure.col_minimal)
    s_lt, keep_lt = _minimal_basis(p.transposed(), structure.row_minimal)
    s_lt = s_lt.T
    s_l = np.linalg.pinv(p.b @ t_l[:, keep_l])
    t_lt = np.linalg.pinv(s_lt[keep_lt] @ p.b)
    rlt, clt = len(keep_lt), int(keep_lt.sum())
    # S_0 P T_0 = [[C_LT, 0], [Y, C_L]], since the L^T rows annihilate the
    # L columns' images; [[I, 0], [Q, I]] and [[I, 0], [R, I]] remove the
    # coupling Y when Q C_LT + C_L R = -Y
    system, rhs = [], []
    for coeff, c in ((p.a, target.a), (p.b, target.b)):
        c_lt, c_l = c[:rlt, :clt], c[rlt:, clt:]
        system.append(np.hstack([np.kron(np.eye(n - rlt), c_lt.T), np.kron(c_l, np.eye(clt))]))
        rhs.append(-(s_l @ coeff @ t_lt).reshape(-1))
    x = np.linalg.lstsq(np.vstack(system), np.concatenate(rhs), rcond=None)[0]
    q = x[: (n - rlt) * rlt].reshape(n - rlt, rlt)
    r = x[(n - rlt) * rlt :].reshape(n - clt, clt)
    s = np.vstack([s_lt, s_l + q @ s_lt])
    t = np.hstack([t_lt + t_l @ r, t_l])
    err = max(float(np.linalg.norm(s @ p.a @ t - target.a)),
              float(np.linalg.norm(s @ p.b @ t - target.b)))
    ranks = (numerical_rank(s, tol), numerical_rank(t, tol))
    if err > 1e-8 * max(target.norm_scale(), 1.0) or min(ranks) < n:
        raise TransformUnavailable(
            f"minimal-basis transforms reach the canonical form to {err:.3e}, "
            f"with ranks {ranks} of {n}"
        )
    return s, t
