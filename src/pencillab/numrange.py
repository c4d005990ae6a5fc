"""Joint numerical range tests and isotropic-vector certificates.

Membership of the origin in the joint numerical range W(A, B) is
certified constructively for singular pencils, from a least-degree
polynomial kernel vector (Gantmacher 1959; Van Dooren 1979), and for
regular pairs only by randomized local search; absence is claimed only
through the convex hull, where Wolfe's min-norm-point method (Gilbert
1966; Wolfe 1976) certifies both answers: convex weights on at most five
range points that average to the origin, or a separating direction of the
four-matrix Hermitian combination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares, nnls

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import NotSingular, TransformUnavailable
from .kronecker import _toeplitz_resultant, is_singular
from .pencil import Pencil, as_matrix

CERT_REL_TOL = 1e-8
BOUNDARY_TOL = 1e-7
INSIDE_SLACK = 1e-8
DOUBLY_COMMUTE_REL_TOL = 1e-10
HULL_MAX_ITERATIONS = 200
SEARCH_TARGET_REL = 1e-11
# dogbox reaches the target within 5-9 evaluations from most starts that
# converge; the cap stops starts that do not, and bounds a search that finds nothing.
SEARCH_MAX_EVALUATIONS = 20
ISOTROPIC_SEARCH_RESTARTS = 400  # on a regular pair whose hull does not exclude the origin


def jnr_sample(a, b, count: int, seed: int) -> list[tuple[complex, complex]]:
    """Joint numerical range samples from seeded random unit vectors."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"need square matrices of equal size, got {a.shape} and {b.shape}")
    rng = np.random.default_rng(seed)
    n = a.shape[0]
    out = []
    for _ in range(count):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z /= np.linalg.norm(z)
        out.append((complex(z.conj() @ a @ z), complex(z.conj() @ b @ z)))
    return out


# ---------------------------------------------------------------------------
# isotropic certificates


@dataclass(frozen=True)
class IsotropicCertificate:
    """Unit vector with both quadratic-form residuals, plus its provenance.

    ``method`` is ``"kernel"`` (a common kernel vector) or
    ``"kronecker-constructive"`` (a polynomial kernel vector of degree >= 1)
    from :func:`isotropic_from_singular`, and ``"random-search"`` only from
    :func:`isotropic_search`.
    """

    vector: np.ndarray
    residual_a: float
    residual_b: float
    method: str

    def is_valid(self, a, b, rel_tol: float = CERT_REL_TOL) -> bool:
        """Recompute the residuals from scratch and test them."""
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        x = self.vector
        if abs(np.linalg.norm(x) - 1.0) > 1e-12:
            return False
        ra = abs(x.conj() @ a @ x)
        rb = abs(x.conj() @ b @ x)
        return bool(
            ra <= rel_tol * max(float(np.linalg.norm(a)), 1e-300)
            and rb <= rel_tol * max(float(np.linalg.norm(b)), 1e-300)
        )


def _certificate(a, b, x, method: str) -> IsotropicCertificate:
    x = np.asarray(x, dtype=complex)
    x = x / np.linalg.norm(x)
    return IsotropicCertificate(
        vector=x,
        residual_a=float(abs(x.conj() @ a @ x)),
        residual_b=float(abs(x.conj() @ b @ x)),
        method=method,
    )


def _search_residual_functions(a, b):
    n = a.shape[0]
    sa = max(float(np.linalg.norm(a)), 1e-300)
    sb = max(float(np.linalg.norm(b)), 1e-300)

    def resid(u):
        z = u[:n] + 1j * u[n:]
        nz = float((z @ z.conj()).real)
        qa = (z.conj() @ a @ z) / (nz * sa)
        qb = (z.conj() @ b @ z) / (nz * sb)
        return np.array([qa.real, qa.imag, qb.real, qb.imag])

    def jac(u):
        z = u[:n] + 1j * u[n:]
        nz = float((z @ z.conj()).real)
        rows = []
        for m, sm in ((a, sa), (b, sb)):
            q = z.conj() @ m @ z
            mz = m @ z
            msz = m.conj().T @ z
            dq = np.concatenate([mz + msz.conj(), -1j * mz + 1j * msz.conj()])
            df = dq / (nz * sm) - q * (2.0 * u) / (nz * nz * sm)
            rows.append(df.real)
            rows.append(df.imag)
        return np.vstack(rows)

    return resid, jac


def isotropic_search(
    a,
    b,
    tol: ToleranceConfig = DEFAULT_TOL,
    restarts: int = ISOTROPIC_SEARCH_RESTARTS,
) -> IsotropicCertificate | None:
    """Randomized search for a common isotropic unit vector.

    From each random start, scipy's ``dogbox`` trust-region least squares
    (Voglis & Lagaris 2004) drives the two normalized complex quadratic
    forms toward zero for at most ``SEARCH_MAX_EVALUATIONS`` evaluations;
    returns the first certificate below ``SEARCH_TARGET_REL`` residuals,
    the best valid one otherwise, or None when the search found nothing
    acceptable (which proves nothing about non-membership).
    """
    a = as_matrix(a)
    b = as_matrix(b)
    n = a.shape[0]
    if n == 0:
        return None
    sa = max(float(np.linalg.norm(a)), 1e-300)
    sb = max(float(np.linalg.norm(b)), 1e-300)
    if sa <= 1e-300 and sb <= 1e-300:
        x = np.zeros(n, dtype=complex)
        x[0] = 1.0
        return _certificate(a, b, x, "random-search")
    rng = np.random.default_rng(tol.rng_seed)
    resid, jac = _search_residual_functions(a, b)
    best: IsotropicCertificate | None = None
    for _ in range(restarts):
        u0 = rng.standard_normal(2 * n)
        sol = least_squares(resid, u0, jac=jac, method="dogbox", xtol=3e-16, ftol=3e-16,
                            gtol=3e-16, max_nfev=SEARCH_MAX_EVALUATIONS)
        z = sol.x[:n] + 1j * sol.x[n:]
        nz = np.linalg.norm(z)
        if nz < 1e-12:
            continue
        cert = _certificate(a, b, z / nz, "random-search")
        if best is None or cert.residual_a / sa + cert.residual_b / sb < (
            best.residual_a / sa + best.residual_b / sb
        ):
            best = cert
        if cert.residual_a <= SEARCH_TARGET_REL * sa and cert.residual_b <= SEARCH_TARGET_REL * sb:
            return cert
    if best is not None and best.is_valid(a, b):
        return best
    return None


def isotropic_from_singular(p: Pencil, tol: ToleranceConfig = DEFAULT_TOL) -> IsotropicCertificate:
    """Common isotropic vector of the coefficients of a singular pencil.

    For k = 0, 1, ..., n, X = [x_0 ... x_k] is the smallest singular vector
    of the degree-k kernel resultant of (A, rho B), and x = X c with
    R* X c = 0 for R = B [x_0 ... x_(k-1)]; the first valid x is returned.
    At the least column minimal index X is a minimal polynomial kernel
    vector, so A X and B X lie in span R and x* A x = x* B x = 0.
    """
    if not p.is_square:
        raise ValueError(f"isotropic construction needs a square pencil, got {p.shape}")
    if not is_singular(p, tol):
        raise NotSingular("pencil is not singular; no isotropic vector is guaranteed")
    return _singular_certificate(p)


def _singular_certificate(p: Pencil) -> IsotropicCertificate:
    """The body of :func:`isotropic_from_singular` for a pencil known to be singular."""
    a, b = p.a, p.b
    n = p.cols
    q = p.balanced()[0]
    for k in range(n + 1):
        x_mat = np.linalg.svd(_toeplitz_resultant(q, k))[2][-1].conj().reshape(k + 1, n).T
        if k == 0:
            x = x_mat[:, 0]
        else:
            r = q.b @ x_mat[:, :k]
            x = x_mat @ np.linalg.svd(r.conj().T @ x_mat)[2][-1].conj()
        cert = _certificate(a, b, x, "kernel" if k == 0 else "kronecker-constructive")
        if cert.is_valid(a, b):
            return cert
    raise TransformUnavailable(
        f"no polynomial kernel vector of degree <= {n} gives a valid isotropic certificate"
    )


# ---------------------------------------------------------------------------
# convex hull of the joint numerical range


@dataclass(frozen=True)
class SeparationCertificate:
    """Direction in R^4 along which the whole range clears the origin."""

    direction: np.ndarray
    margin: float

    def is_valid(self, a, b, slack: float = 1e-8) -> bool:
        mats = _real_range_matrices(a, b)
        combined = np.tensordot(self.direction, mats, axes=1)
        lam_min = float(np.linalg.eigvalsh(combined).min(initial=np.inf))  # inf: empty range
        return lam_min >= self.margin - slack * max(1.0, abs(self.margin))


@dataclass(frozen=True)
class InsideCertificate:
    """Unit vectors x_k (rows) and convex weights w_k with sum_k w_k W(x_k) = 0.

    rho = sum_k w_k x_k x_k* is a density matrix with tr(A rho) = tr(B rho)
    = 0 up to ``INSIDE_SLACK`` times the range's scale: at most 5 vectors
    from the iteration, or the basis with weights 1/n when rho = I/n works.
    """

    vectors: np.ndarray
    weights: np.ndarray

    def is_valid(self, a, b) -> bool:
        """Recompute the weighted range point from the vectors alone and test it.

        The A pair and the B pair of its coordinates are each tested
        against their own coefficient's norm.
        """
        mats = _real_range_matrices(a, b)
        w, unit = self.weights, np.abs(np.linalg.norm(self.vectors, axis=1) - 1.0) <= 1e-12
        if len(w) == 0 or np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12 or not unit.all():
            return False
        point = w @ np.array([_atom(mats, x) for x in self.vectors])
        norms = _coefficient_norms(a, b)
        return all(np.linalg.norm(point[k : k + 2]) <= INSIDE_SLACK * norms[k] for k in (0, 2))


@dataclass(frozen=True)
class ConvHullMembership:
    """Outcome of the origin-in-convex-hull decision.

    ``strongest_min`` is the best lower bound on dist(0, conv W(A, B))
    found: the largest smallest eigenvalue of u1 H_A + u2 K_A + u3 H_B +
    u4 K_B over the directions u tried (``direction``), 0 if none was.
    ``iterations`` counts those eigenvalue oracle calls.  ``certificate``
    proves an "outside" verdict, ``inside_certificate`` an "inside" one.
    """

    verdict: str  # "inside" | "outside" | "boundary"
    strongest_min: float
    direction: np.ndarray
    scale: float
    certificate: SeparationCertificate | None = None
    inside_certificate: InsideCertificate | None = None
    iterations: int = 0


def _real_range_matrices(a, b) -> np.ndarray:
    """H_A, K_A, H_B, K_B with A = H_A + iK_A and B = H_B + iK_B, all Hermitian."""
    m = np.stack([a, b]).astype(complex)
    adjoint = m.conj().transpose(0, 2, 1)
    herm, skew = (m + adjoint) / 2.0, (m - adjoint) / 2.0j
    return np.stack([herm[0], skew[0], herm[1], skew[1]])


def _coefficient_norms(a, b) -> np.ndarray:
    """|A|_F, |A|_F, |B|_F, |B|_F: the norm of each range coordinate's coefficient, 1 if zero."""
    norms = np.array([np.linalg.norm(a), np.linalg.norm(b)])
    return np.repeat(np.where(norms > 0.0, norms, 1.0), 2)


def _atom(mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The point (x* M_i x)_i of the joint range in R^4."""
    return ((mats @ x) @ x.conj()).real


def conv_hull_membership(
    a,
    b,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ConvHullMembership:
    """Decide whether the origin lies in the closed convex hull K of W(A, B).

    Wolfe's min-norm point (fully corrective Frank-Wolfe) in R^4, started
    at the range point of rho = I/n.  At the point p of K, a unit
    eigenvector x of the smallest eigenvalue of sum_i (p_i/|p|) M_i gives
    the new atom (x* M_i x)_i; that eigenvalue bounds dist(0, K) from below.
    The next p is the min-norm point of the active atoms' hull: NNLS on
    [S; 1 ... 1] w = (0, 1), scaled to sum 1, drops atoms of zero weight.
    A bound above ``BOUNDARY_TOL`` times the scale is "outside", |p| within
    ``INSIDE_SLACK`` times it "inside", and a gap |p| - bound at rounding
    level or ``HULL_MAX_ITERATIONS`` calls "boundary".

    The decision is made on (A/|A|_F, B/|B|_F), so that neither
    coefficient's coordinates sit below the slack of the other's scale;
    the verdict is unchanged under (A, B) -> (cA, dB), and a direction u
    found there maps back as u_i / s_i for the norm s_i of coordinate i's
    coefficient, with the same margin.  ``scale`` is that of the balanced
    pair.  The empty pair's range is empty, so the origin is "outside" it,
    by a separation certificate of margin 0 that holds vacuously.
    """
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"need square matrices of equal size, got {a.shape} and {b.shape}")
    n = a.shape[0]
    if not n:
        cert = SeparationCertificate(direction=np.eye(4)[0], margin=0.0)
        return ConvHullMembership("outside", 0.0, cert.direction, 0.0, cert)
    norms = _coefficient_norms(a, b)
    mats = _real_range_matrices(a, b) / norms[:, None, None]
    scale = float(max(np.linalg.norm(mats, axis=(1, 2))))
    point = np.trace(mats, axis1=1, axis2=2).real / max(n, 1)
    norm = float(np.linalg.norm(point))
    if norm <= INSIDE_SLACK * scale:
        cert = InsideCertificate(np.eye(n, dtype=complex), np.full(n, 1.0 / max(n, 1)))
        return ConvHullMembership("inside", 0.0, np.eye(4)[0], scale, inside_certificate=cert)
    gap_floor = 100.0 * n * np.finfo(float).eps * scale  # rounding in eigh and NNLS
    vectors, atoms = np.empty((0, n), dtype=complex), np.empty((0, 4))
    best, best_dir = -np.inf, point / norm / norms
    for iteration in range(1, HULL_MAX_ITERATIONS + 1):
        values, eigvecs = np.linalg.eigh(np.tensordot(point / norm, mats, axes=1))
        if values[0] > best:
            best, best_dir = float(values[0]), point / norm / norms
        if best > BOUNDARY_TOL * scale:
            cert = SeparationCertificate(direction=best_dir, margin=best)
            return ConvHullMembership("outside", best, best_dir, scale, cert, iterations=iteration)
        if norm - values[0] <= gap_floor:
            break
        vectors = np.vstack([vectors, eigvecs[:, 0]])
        atoms = np.vstack([atoms, _atom(mats, eigvecs[:, 0])])
        try:
            weights = nnls(np.vstack([atoms.T / scale, np.ones(len(atoms))]), np.eye(5)[4])[0]
        except RuntimeError:  # Lawson-Hanson's iteration limit: leave it undecided
            break
        keep = weights > 0.0
        vectors, atoms, weights = vectors[keep], atoms[keep], weights[keep] / weights.sum()
        point = weights @ atoms
        norm = float(np.linalg.norm(point))
        if norm <= INSIDE_SLACK * scale:
            cert = InsideCertificate(vectors, weights)
            return ConvHullMembership("inside", best, best_dir, scale, inside_certificate=cert,
                                      iterations=iteration)
    return ConvHullMembership("boundary", best, best_dir, scale, iterations=iteration)


def pencil_nr_is_plane(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether the numerical range of A + lam B covers the whole plane."""
    return conv_hull_membership(a, b, tol).verdict in ("inside", "boundary")


def nr_contains(p: Pencil, lam0: complex, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether 0 lies in the (convex) numerical range of A + lam0 B.

    The numerical range of M = A + lam0 B is W(M, 0) read in its first two
    coordinates, so this is :func:`conv_hull_membership` of (M, 0), at the
    same scale and slack.
    """
    if not p.is_square:
        raise ValueError(f"numerical range needs a square pencil, got {p.shape}")
    m = p.at(complex(lam0))
    return conv_hull_membership(m, np.zeros_like(m), tol).verdict == "inside"


def is_doubly_commuting(a, b, rel_tol: float = DOUBLY_COMMUTE_REL_TOL) -> bool:
    """AB = BA and A*B = BA*, each up to 1e-10 relative to |A| |B|."""
    a = as_matrix(a)
    b = as_matrix(b)
    scale = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    return (
        float(np.linalg.norm(a @ b - b @ a)) <= rel_tol * scale
        and float(np.linalg.norm(a.conj().T @ b - b @ a.conj().T)) <= rel_tol * scale
    )
