"""Dense complex linear algebra substrate.

Factorizations are delegated to LAPACK through numpy (complex SVD;
eigenvalues via Hessenberg reduction plus shifted QR, which is what
``zgeev`` performs).  Everything tolerance-sensitive is parameterized by
:class:`~pencillab.config.ToleranceConfig`, and every rank decision in the
package is made by :func:`rank_decision`: singular values at or below
``rank_rel_tol * max(sigma_1, scale) * max(rows, cols)`` count as zero,
where ``scale`` anchors the cutoff to an ambient magnitude (0 for a purely
relative cutoff).  A singular value within a factor ``RANK_GUARD`` = 10 of
the cutoff makes the decision untrustworthy; callers that must be sure
raise or skip on it.  A pencil sweep anchors node lam at |A| + |lam| |B|
(:func:`node_stack`); determinant-zero decisions compare LU pivots with
``det_zero_tol`` against the same anchor (:func:`det_zero_sweep`).
"""

from __future__ import annotations

from dataclasses import dataclass

import warnings

import numpy as np
import scipy.linalg

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import DecompositionError, SingularPencil
from .pencil import Pencil, as_matrix

# A singular value within this factor of its cutoff makes a rank decision
# untrustworthy: the staircase raises on it and node sweeps skip the node.
RANK_GUARD = 10.0

# Double roots of an interpolated polynomial split by about sqrt(eps) in
# floating point; clustering has to bridge that gap even when the user
# tolerance is tighter.
_CLUSTER_FLOOR = 4.0 * np.sqrt(np.finfo(float).eps)


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
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return np.zeros(0)
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
    """
    sigma = np.asarray(sigma, dtype=float)
    cutoff = tol.rank_rel_tol * np.maximum(sigma.max(axis=-1, initial=0.0), scale) * max(shape)
    cut = cutoff[..., None]
    closeness = np.minimum(sigma, cut) / np.maximum(np.maximum(sigma, cut), np.finfo(float).tiny)
    with np.errstate(divide="ignore"):
        margin = 1.0 / closeness.max(axis=-1, initial=0.0)
    return np.count_nonzero(sigma > cut, axis=-1), cutoff, margin


def numerical_rank(m, tol: ToleranceConfig = DEFAULT_TOL, scale: float = 0.0) -> int:
    """Numerical rank of a matrix, with the cutoff anchored at ``scale``."""
    m = np.asarray(m, dtype=complex)
    return int(rank_decision(singular_values(m), m.shape, scale, tol)[0])


def null_space(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the right kernel, one column per kernel direction."""
    m = as_matrix(m)
    if m.size == 0:
        return np.eye(m.shape[1], dtype=complex)
    u, s, v = svd(m)
    r = int(rank_decision(s, m.shape, 0.0, tol)[0])
    return np.ascontiguousarray(v[:, r:])


def determinant(m) -> complex:
    """LU-based determinant."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"determinant needs a square matrix, got {m.shape}")
    if m.shape[0] == 0:
        return 1.0 + 0.0j
    return complex(np.linalg.det(m))


def cluster_values(values, tol: ToleranceConfig = DEFAULT_TOL) -> SpectrumList:
    """Group nearby complex values into (value, multiplicity) clusters.

    Values are sorted lexicographically by (Re, Im) and chained into a
    cluster while they stay within the cluster radius of the running
    centroid.  The radius is relative to the centroid magnitude with an
    absolute floor of 1.
    """
    vs = sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))
    if not vs:
        return SpectrumList((), ())
    radius_tol = max(tol.eig_cluster_tol, _CLUSTER_FLOOR)
    reps: list[complex] = []
    mults: list[int] = []
    current = [vs[0]]
    centroid = vs[0]
    for v in vs[1:]:
        if abs(v - centroid) <= radius_tol * max(1.0, abs(centroid)):
            current.append(v)
            centroid = sum(current) / len(current)
        else:
            reps.append(centroid)
            mults.append(len(current))
            current = [v]
            centroid = v
    reps.append(centroid)
    mults.append(len(current))
    return SpectrumList(tuple(reps), tuple(mults))


def eigenvalues(m, tol: ToleranceConfig = DEFAULT_TOL) -> SpectrumList:
    """Matrix spectrum with multiplicities from eigenvalue clustering."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"eigenvalues need a square matrix, got {m.shape}")
    if m.shape[0] == 0:
        return SpectrumList((), ())
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"QR eigenvalue iteration did not converge: {exc}",
                                 detail=str(exc)) from exc
    return cluster_values(vals, tol)


# ---------------------------------------------------------------------------
# determinant sampling of a pencil


def det_sample_nodes(p: Pencil, count: int) -> np.ndarray:
    """Equally spaced nodes on a circle whose radius balances |A| against |B|."""
    na = float(np.linalg.norm(p.a))
    nb = float(np.linalg.norm(p.b))
    radius = max(na, 1e-12) / max(nb, 1e-12)
    radius = float(np.clip(radius, 1e-3, 1e3))
    return radius * np.exp(2j * np.pi * np.arange(count) / count)


def sampled_determinants(p: Pencil, nodes) -> np.ndarray:
    """Determinants of the norm-scaled pencil at the given nodes.

    The uniform 1/s**n scaling keeps values representable without moving
    any root of the determinant polynomial.
    """
    s = p.norm_scale()
    if s == 0.0:
        return np.zeros(len(nodes), dtype=complex)
    return np.linalg.det(node_stack(Pencil(p.a / s, p.b / s), nodes)[0])


def node_stack(p: Pencil, nodes) -> tuple[np.ndarray, np.ndarray]:
    """A + lam_k B at every node as one stack, and each node's anchor.

    The anchor |A| + |lam_k| |B| is the size of the terms summed, so a node
    on an eigenvalue, where the matrix is rounding noise of that size,
    reads deficient, while an unbalanced pencil's anchor is not overstated.
    """
    nodes = np.asarray(nodes, dtype=complex)
    stack = nodes[:, None, None] * p.b
    stack += p.a
    return stack, float(np.linalg.norm(p.a)) + np.abs(nodes) * float(np.linalg.norm(p.b))


def det_zero_sweep(stack, anchors, tol: ToleranceConfig) -> tuple[bool, float]:
    """Determinant-channel singularity verdict over a :func:`node_stack`.

    The determinant is the LU pivot product up to sign, so the smallest
    pivot against max(largest pivot, node anchor) witnesses a zero.
    Returns (every ratio below ``det_zero_tol``, largest ratio).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, _ = scipy.linalg.lu_factor(stack, check_finite=False)
    pivots = np.abs(np.diagonal(lu, axis1=-2, axis2=-1))
    top = np.maximum(pivots.max(axis=-1), anchors)
    ratios = pivots.min(axis=-1) / np.maximum(top, np.finfo(float).tiny)
    return bool(np.all(ratios < tol.det_zero_tol)), float(ratios.max())


def pencil_determinant_coefficients(p: Pencil, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Coefficients c_0..c_n of det(A/s + lam*B/s) recovered by DFT.

    Sampling on an equispaced circle makes the interpolation an inverse
    DFT, which is perfectly conditioned; the uniform 1/s**n scaling leaves
    the roots untouched.
    """
    if not p.is_square:
        raise ValueError("determinant interpolation needs a square pencil")
    n = p.rows
    nodes = det_sample_nodes(p, n + 1)
    dets = sampled_determinants(p, nodes)
    radius = abs(nodes[0])
    coeffs = np.fft.fft(dets) / (n + 1) / radius ** np.arange(n + 1)
    return coeffs


def pencil_eigenvalues(p: Pencil, tol: ToleranceConfig = DEFAULT_TOL) -> SpectrumList:
    """Roots of det(A + lam*B) with multiplicities, plus the count at infinity.

    The determinant is interpolated at n+1 circle nodes and the interpolant
    is solved through a companion-matrix eigenproblem.  Degree deficiency
    of the interpolant is reported as eigenvalues at infinity.  Raises
    :class:`SingularPencil` when every sampled determinant is negligible.
    """
    if not p.is_square:
        raise ValueError("pencil eigenvalues need a square pencil")
    n = p.rows
    if n == 0:
        return SpectrumList((), ())
    all_zero, _ = det_zero_sweep(*node_stack(p, det_sample_nodes(p, n + 1)), tol)
    if all_zero:
        raise SingularPencil(
            "all sampled determinants are negligible; the pencil appears singular"
        )
    coeffs = pencil_determinant_coefficients(p, tol)
    mx = float(np.max(np.abs(coeffs)))
    degree = n
    while degree > 0 and abs(coeffs[degree]) < tol.det_zero_tol * mx:
        degree -= 1
    if degree == 0:
        return SpectrumList((), (), infinite=n)
    roots = _companion_roots(coeffs[: degree + 1])
    spectrum = cluster_values(roots, tol)
    return SpectrumList(spectrum.values, spectrum.multiplicities, infinite=n - degree)


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of sum(coeffs[j] * lam**j) via the companion eigenproblem."""
    degree = len(coeffs) - 1
    monic = coeffs / coeffs[-1]
    comp = np.zeros((degree, degree), dtype=complex)
    if degree > 1:
        comp[1:, :-1] = np.eye(degree - 1)
    comp[:, -1] = -monic[:-1]
    try:
        return np.linalg.eigvals(comp)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(
            f"companion eigenvalue iteration did not converge: {exc}", detail=str(exc)
        ) from exc
