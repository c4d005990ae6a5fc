"""Dense complex linear algebra substrate.

Factorizations are delegated to LAPACK through numpy and scipy (complex
SVD, QR, QZ, and LU for determinants).  Everything tolerance-sensitive is
parameterized by :class:`~pencillab.config.ToleranceConfig`, and every
rank decision in the package is made by :func:`rank_decision`: singular
values at or below
``rank_rel_tol * max(sigma_1, scale) * max(rows, cols)`` count as zero,
where ``scale`` anchors the cutoff to an ambient magnitude (0 for a purely
relative cutoff).  A singular value within a factor ``RANK_GUARD`` = 10 of
the cutoff makes the decision untrustworthy; callers that must be sure
raise or skip on it.  Every pencil sweep takes its nodes from
:func:`node_stack`, which places max(rows, cols) + 1 of them on one circle
and anchors node lam at |A| + |lam| |B|.  Singularity is decided on the
smallest singular value at each node against its rank cutoff
(:func:`~pencillab.kronecker.is_singular`), and the one cheaper screen,
:func:`deficient_at_every_node`, bounds that same value by the QR
diagonal, so it can only confirm the singular side.  Every
eigenvalue cluster with its multiplicity comes from
:func:`disc_clusters`, which links QZ eigenvalues by their own
chordal perturbation discs (:func:`eigenvalue_discs`), and
:func:`invariant_subspaces` adds each cluster's subspace by reordering one
Schur or QZ form.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np
import scipy.linalg

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import DecompositionError, RankDecisionUnstable, SingularPencil
from .pencil import Pencil, as_matrix

# A singular value within this factor of its cutoff makes a rank decision
# untrustworthy: the staircase raises on it and node sweeps skip the node.
RANK_GUARD = 10.0

# Chordal radius per unit of first-order error; 10 leaves split Jordan rings unmerged.
CLUSTER_RADIUS_FACTOR = 100.0
# Rings stay below 1e-3 up to Jordan-4, while a 0.1 cap linked eigenvalues 0.2 apart.
CLUSTER_RADIUS_CAP = 0.01
TINY = float(np.finfo(float).tiny)  # the floor of every divisor that can be zero


@dataclass(frozen=True)
class SpectrumList:
    """Eigenvalues with algebraic multiplicities.

    ``infinite`` counts eigenvalues at infinity (pencil use only); for a
    plain matrix spectrum it is zero and multiplicities sum to the
    dimension.
    """

    values: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    infinite: int = 0

    def __post_init__(self):
        if len(self.values) != len(self.multiplicities):
            raise ValueError("values and multiplicities must have equal length")
        if any(m < 1 for m in self.multiplicities):
            raise ValueError("multiplicities must be positive")

    @property
    def total(self) -> int:
        return sum(self.multiplicities) + self.infinite

    def expanded(self) -> list[complex]:
        """All finite values repeated by multiplicity."""
        out: list[complex] = []
        for v, m in zip(self.values, self.multiplicities):
            out.extend([v] * m)
        return out


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD returning (U, sigma, V) with m = U @ diag(sigma) @ V*.

    Note V is returned directly (not its conjugate transpose).
    """
    m = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise DecompositionError(f"SVD did not converge: {exc}", detail=str(exc)) from exc
    return u, s, vh.conj().T


def singular_values(m) -> np.ndarray:
    """Singular values of a matrix, or of each matrix of a stack, in descending order."""
    m = np.asarray(m, dtype=complex)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise DecompositionError(f"SVD did not converge: {exc}", detail=str(exc)) from exc


def rank_decision(sigma, shape: tuple[int, int], scale=0.0, tol: ToleranceConfig = DEFAULT_TOL):
    """Numerical rank from singular values: (rank, cutoff, margin).

    The cutoff is ``rank_rel_tol * max(sigma_1, scale) * max(rows, cols)``.
    ``sigma`` holds the singular values of a matrix of the given shape
    along its last axis; leading axes index a stack of matrices, against
    which ``scale`` broadcasts.  The margin is the factor between the
    cutoff and the nearest singular value, infinite when all are zero.
    Singular values are read as |sigma|, since a full SVD of a matrix with
    signed zero entries can return -0.0.  One matrix (a 1-D ``sigma``)
    takes the same operations without the stack's broadcasting, and gets
    the same bits.
    """
    sigma = np.abs(np.asarray(sigma, dtype=float))
    if sigma.ndim == 1:
        cutoff = float(rank_cutoff(float(sigma.max(initial=0.0)), shape, scale, tol))
        closeness = np.minimum(sigma, cutoff) / np.maximum(np.maximum(sigma, cutoff), TINY)
        nearest = float(closeness.max(initial=0.0))
        margin = 1.0 / nearest if nearest else math.inf
        return int(np.count_nonzero(sigma > cutoff)), cutoff, margin
    cutoff = rank_cutoff(sigma.max(axis=-1, initial=0.0), shape, scale, tol)
    cut = cutoff[..., None]
    closeness = np.minimum(sigma, cut) / np.maximum(np.maximum(sigma, cut), TINY)
    with np.errstate(divide="ignore"):
        margin = 1.0 / closeness.max(axis=-1, initial=0.0)
    return np.count_nonzero(sigma > cut, axis=-1), cutoff, margin


def rank_cutoff(sigma_1, shape: tuple[int, int], scale=0.0, tol: ToleranceConfig = DEFAULT_TOL):
    """The cutoff of :func:`rank_decision` for the largest singular value(s) ``sigma_1``."""
    return tol.rank_rel_tol * np.maximum(sigma_1, scale) * max(shape)


def rank_count(sigma, shape: tuple[int, int], scale=0.0, tol: ToleranceConfig = DEFAULT_TOL):
    """The rank of :func:`rank_decision` without its margin, from an SVD's singular values."""
    cutoff = rank_cutoff(sigma.max(axis=-1, initial=0.0), shape, scale, tol)
    return (sigma > cutoff[..., None]).sum(axis=-1)


def numerical_rank(m, tol: ToleranceConfig = DEFAULT_TOL, scale: float = 0.0) -> int:
    """Numerical rank of a matrix, with the cutoff anchored at ``scale``."""
    m = np.asarray(m, dtype=complex)
    return int(rank_count(singular_values(m), m.shape, scale, tol))


def null_space(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the right kernel, one column per kernel direction."""
    m = as_matrix(m)
    if m.size == 0:
        return np.eye(m.shape[1], dtype=complex)
    u, s, v = svd(m)
    r = int(rank_count(s, m.shape, 0.0, tol))
    return np.ascontiguousarray(v[:, r:])


def determinant(m) -> complex:
    """LU-based determinant."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"determinant needs a square matrix, got {m.shape}")
    if m.shape[0] == 0:
        return 1.0 + 0.0j
    return complex(np.linalg.det(m))


def eigenvalues(a, b=None) -> SpectrumList:
    """Eigenvalues of the matrix A, or of the pencil A + lam B, clustered.

    The pencil is first balanced by a power of two, so that |A| and |B|
    match; a matrix is scaled down to |A|_F ~ sqrt(n) when larger, so its
    metric is relative to max(1, |A|) like the rank anchors.  The clusters
    are those of :func:`disc_clusters` over :func:`eigenvalue_discs`.
    """
    a, b, scale = _balanced(a, b)
    return disc_clusters(*eigenvalue_discs(a, b), scale=scale)


def invariant_subspaces(a, b=None) -> tuple[SpectrumList, tuple[np.ndarray, ...]]:
    """The clusters of :func:`eigenvalues` with an orthonormal basis of each one's subspace.

    One complex Schur form of a matrix, or one QZ form of a pencil, is
    computed per call and reordered once per cluster to lead with it
    (LAPACK ``ztrsen`` or ``ztgsen``; Bai & Demmel 1993, Kågström & Poromaa
    1996); the leading columns span the matrix's invariant subspace or the
    pencil's right deflating subspace.  A reordering that fails, or that
    does not lead with exactly the cluster, raises
    :class:`RankDecisionUnstable`.  A single finite cluster of all n
    eigenvalues spans the whole space and takes the identity as its basis,
    with no Schur form.  Clusters at infinity have no basis.
    """
    a, b, scale = _balanced(a, b)
    alpha, beta, radius = eigenvalue_discs(a, b)
    spectrum, labels, roots = _clusters(alpha, beta, radius, scale)
    if not len(roots):
        return spectrum, ()
    if spectrum.multiplicities == (len(a),):
        return spectrum, (np.eye(len(a)),)

    def owner(x, y):  # the cluster of the chordally nearest eigenvalue
        return labels[np.abs(np.multiply.outer(x, beta) - np.multiply.outer(y, alpha)).argmin(-1)]

    try:  # (T, Z) with A = Z T Z*, or (S, T, Q, Z) with (A, -B) = Q (S, T) Z*
        form = (scipy.linalg.schur(a, output="complex") if b is None
                else scipy.linalg.qz(a, -b, output="complex"))
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise RankDecisionUnstable(f"the Schur form failed: {exc}") from exc
    owners = owner(np.diag(form[0]), 1.0 if b is None else np.diag(form[1]))
    bases, x, y = [], [], []
    for select, size in zip((owners == roots[:, None]).astype(np.int32), spectrum.multiplicities):
        if b is None:
            _, z, xk, *_, info = scipy.linalg.lapack.ztrsen(select, *form, job="N")
        else:
            _, _, xk, yk, _, z, *_, info = scipy.linalg.lapack.ztgsen(select, *form, ijob=0)
            y.append(yk)
        if info != 0:
            raise RankDecisionUnstable(f"reordering the Schur form failed with info {info}")
        x.append(xk)
        bases.append(z[:, :size])
    # row k, the diagonal reordered for cluster k, must lead with exactly that cluster
    leading = owner(np.array(x), 1.0 if b is None else np.array(y)) == roots[:, None]
    if not np.array_equal(leading, np.arange(len(a)) < np.array(spectrum.multiplicities)[:, None]):
        raise RankDecisionUnstable(f"reorderings to clusters of {spectrum.multiplicities} led "
                                   f"with {leading}")
    return spectrum, tuple(bases)


def _balanced(a, b):
    """A and B scaled by the power of two s of :func:`eigenvalues`, and s."""
    a = as_matrix(a)
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValueError(f"eigenvalues need a square matrix or pencil, got {a.shape}")
    if b is None:
        scale = _power_of_two(max(float(np.linalg.norm(a)) / math.sqrt(max(n, 1)), 1.0))
        return a / scale, None, scale
    b = as_matrix(b)
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    scale = _power_of_two(na / nb) if na > 0.0 and nb > 0.0 else 1.0
    # A + w (scale B) has eigenvalues w = lam / scale
    return a, scale * b, scale


def eigenvalue_discs(a, b=None, error: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QZ eigenvalues of A + lam B (QR of the matrix A when B is None) with their discs.

    Returns (alpha, beta, radius): each eigenvalue lam = alpha / beta in
    homogeneous form with |(alpha, beta)| = 1, so that chordal distances
    are |alpha_i beta_j - alpha_j beta_i|, and its chordal radius
    ``CLUSTER_RADIUS_FACTOR * kappa * eps * |(A, B)|_F`` with
    kappa = |x| |y| / |(y* A x, y* B x)| for right and left eigenvectors
    x, y (Stewart & Sun, ch. VI), capped at ``CLUSTER_RADIUS_CAP``.
    ``error`` is a backward error already made in forming (A, B), such as
    the singular values a staircase set to zero; it replaces
    eps * |(A, B)|_F in the radius when larger.
    """
    try:
        if b is None:
            alpha, vl, vr = scipy.linalg.eig(a, left=True, right=True, check_finite=False)
            beta = np.ones_like(alpha)
        else:
            (alpha, beta), vl, vr = scipy.linalg.eig(
                a, -b, left=True, right=True, homogeneous_eigvals=True, check_finite=False
            )
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise DecompositionError(f"eigenvalue iteration did not converge: {exc}",
                                 detail=str(exc)) from exc
    # scipy returns unit eigenvectors; for B = I, y* B x = y* x and y* A x = lam y* x
    ybx = np.sum(vl.conj() * (vr if b is None else b @ vr), axis=0)
    yax = alpha * ybx if b is None else np.sum(vl.conj() * (a @ vr), axis=0)
    b_norm = math.sqrt(len(a)) if b is None else np.linalg.norm(b)  # |I|_F for a matrix
    pencil_norm = math.hypot(np.linalg.norm(a), b_norm)
    # numerically orthogonal eigenvectors of a long Jordan block give kappa = inf, capped below
    with np.errstate(divide="ignore", over="ignore"):
        kappa = 1.0 / np.hypot(np.abs(yax), np.abs(ybx))
        radius = CLUSTER_RADIUS_FACTOR * kappa * max(np.finfo(float).eps * pencil_norm, error)
    size = np.hypot(np.abs(alpha), np.abs(beta))
    return alpha / size, beta / size, np.minimum(radius, CLUSTER_RADIUS_CAP)


def disc_clusters(alpha, beta, radius, scale: float = 1.0) -> SpectrumList:
    """Eigenvalues from :func:`eigenvalue_discs`, clustered where their discs overlap.

    Eigenvalues whose discs overlap in the chordal metric form one
    cluster, so the ring into which rounding splits a defective
    eigenvalue merges while well-conditioned eigenvalues keep discs near
    eps.  A cluster with a disc reaching infinity counts as infinite;
    every other one is reported by its mean times ``scale`` and its size,
    sorted by (Re, Im).
    """
    return _clusters(alpha, beta, radius, scale)[0]


def _clusters(alpha, beta, radius, scale: float):
    """(:func:`disc_clusters`, each eigenvalue's label, each finite cluster's label in order)."""
    if not len(alpha):
        return SpectrumList((), ()), np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    chordal = np.abs(np.outer(alpha, beta) - np.outer(beta, alpha))
    labels = _components(chordal <= radius[:, None] + radius[None, :])
    roots = np.flatnonzero(labels == np.arange(len(labels)))  # each cluster's first member
    sizes = np.bincount(labels)[roots]
    infinite = np.bincount(labels, np.abs(beta) <= radius)[roots] > 0
    with np.errstate(divide="ignore", invalid="ignore"):  # infinite clusters are dropped
        lam = scale * alpha / beta
        means = (np.bincount(labels, lam.real) + 1j * np.bincount(labels, lam.imag))[roots] / sizes
    finite = np.flatnonzero(~infinite)
    finite = finite[np.lexsort((means[finite].imag, means[finite].real))]
    spectrum = SpectrumList(tuple(means[finite].tolist()), tuple(sizes[finite].tolist()),
                            int(sizes[infinite].sum()))
    return spectrum, labels, roots[finite]


def _power_of_two(x: float) -> float:
    """Nearest power of two to x > 0 (1 otherwise): scaling by it is exact."""
    return 2.0 ** round(math.log2(x)) if x > 0.0 else 1.0


def _components(linked: np.ndarray) -> np.ndarray:
    """Connected-component labels of a symmetric reflexive adjacency matrix."""
    labels = np.arange(len(linked))
    if np.count_nonzero(linked) == len(linked):  # every vertex is linked to itself alone
        return labels
    while True:
        spread = np.where(linked, labels[None, :], len(linked)).min(axis=1)
        if np.array_equal(spread, labels):
            return labels
        labels = spread


# ---------------------------------------------------------------------------
# node sweeps of a pencil


def node_stack(p: Pencil) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node sweep of a pencil: its nodes, A + lam_k B at each as one stack, and each anchor.

    max(rows, cols) + 1 equally spaced nodes lie on the circle whose radius
    |A|_F / |B|_F, clipped in plain floats to [1e-3, 1e3], balances the two
    terms: more nodes than the points where A + lam B can lose rank (Van
    Dooren, LAA 1979), and for a square pencil one more than the degree of
    its determinant.  The anchor |A| + |lam_k| |B| is the size of the terms
    summed, so a node on an eigenvalue, where the matrix is rounding noise
    of that size, reads deficient, while an unbalanced pencil's anchor is
    not overstated.
    """
    count = max(p.shape) + 1
    radius = min(max(max(p.norms[0], 1e-12) / max(p.norms[1], 1e-12), 1e-3), 1e3)
    nodes = radius * np.exp(2j * np.pi * np.arange(count) / count)
    stack = nodes[:, None, None] * p.b
    stack += p.a
    return nodes, stack, p.norms[0] + np.abs(nodes) * p.norms[1]


def deficient_at_every_node(stack, anchors, tol: ToleranceConfig) -> bool:
    """Whether the QR diagonal proves sigma_n negligible at every node of a :func:`node_stack`.

    sigma_n <= min |r_kk| and max |r_kk| <= sigma_1, so min |r_kk| below
    the cutoff of max |r_kk| by more than ``RANK_GUARD`` at every node puts
    sigma_n there too: the singular side of
    :func:`~pencillab.kronecker.is_singular`.  A miss proves nothing.  One
    batched QR serves every node; its ``"raw"`` form has R's diagonal.
    """
    diagonal = np.abs(np.diagonal(np.linalg.qr(stack, mode="raw")[0], axis1=-2, axis2=-1))
    cutoffs = rank_cutoff(diagonal.max(axis=-1), stack.shape[1:], anchors, tol)
    ratios = diagonal.min(axis=-1) / np.maximum(cutoffs, TINY)
    return bool(np.all(ratios * RANK_GUARD < 1.0))


def pencil_determinant_coefficients(p: Pencil) -> np.ndarray:
    """Coefficients c_0..c_n of det(A/s + lam*B/s) recovered by DFT.

    Sampling on the equispaced circle of :func:`node_stack` makes the
    interpolation an inverse DFT, which is perfectly conditioned; the
    uniform 1/s**n scaling keeps values representable without moving any
    root.
    """
    if not p.is_square:
        raise ValueError("determinant interpolation needs a square pencil")
    n = p.rows
    s = p.norm_scale() or 1.0
    nodes, stack, _ = node_stack(Pencil._of_valid(p.a / s, p.b / s))
    return np.fft.fft(np.linalg.det(stack)) / (n + 1) / abs(nodes[0]) ** np.arange(n + 1)


def pencil_eigenvalues(p: Pencil, tol: ToleranceConfig = DEFAULT_TOL) -> SpectrumList:
    """Roots of det(A + lam*B) with multiplicities, plus the count at infinity.

    The clusters come from :func:`eigenvalues`.  Raises
    :class:`SingularPencil` exactly when
    :func:`~pencillab.kronecker.is_singular` proves the pencil singular,
    since a singular pencil has no eigenvalues in this sense, and
    :class:`RankDecisionUnstable` when that verdict is undecided.
    """
    from .kronecker import is_singular  # kronecker builds on this module

    if not p.is_square:
        raise ValueError("pencil eigenvalues need a square pencil")
    if not p.rows:
        return SpectrumList((), ())
    verdict = is_singular(p, tol)
    if verdict:
        raise SingularPencil(f"the pencil is singular: a polynomial kernel vector of degree "
                             f"{verdict.kernel.degree} has residual {verdict.kernel.residual:.3e}")
    return eigenvalues(p.a, p.b)
