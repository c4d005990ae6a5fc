"""Taylor spectrum of commuting matrix pairs via Koszul exactness.

For matrices the two-step Koszul complex is exact at a point exactly when
the stacked map h -> (T1 h, T2 h) is injective and the flattened map
(h1, h2) -> -T2 h1 + T1 h2 is surjective; the middle homology then
vanishes automatically because the composite is zero.  The spectrum comes
from invariant subspaces, as in the simultaneous triangularization of a
commuting pair, checked by shifted-pencil singularity and a determinant
identity, or by the deflating subspaces of A - rho B for invertible pairs.
Each decision is one batched SVD: of both Koszul differentials at a point,
or of the shifted pairs of every joint point for their witnesses.

The Kronecker structure of a commuting pencil is read off the same joint
eigenvectors when every joint point is simple and each decision clears
its guard band by the conditioning of the eigenvector basis
(:func:`commuting_structure`); otherwise, and for every pencil that is
not square and commuting, :func:`~pencillab.kronecker.staircase_structure`
decides it.  ``analyze`` takes a commuting pair's structure, spectrum and
conditions from :func:`commuting_analysis`.  Each public function
validates its pair once: one that calls another lets the callee validate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import ImplicationViolated, NotCommuting, NotInvertible, OracleDisagreement
from .kronecker import KroneckerStructure, SingularityEvidence, is_singular, staircase_structure
from .linalg import (RANK_GUARD, det_sample_nodes, invariant_subspaces, node_stack,
                     numerical_rank, rank_decision, singular_values)
from .pencil import Pencil, as_matrix

COMMUTE_REL_TOL = 1e-10


def check_commuting(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether AB = BA up to 1e-10 relative to |A| |B|."""
    try:
        _require_commuting(a, b, tol)
    except NotCommuting:
        return False
    return True


def _require_commuting(a, b, tol: ToleranceConfig):
    """A and B validated once as square matrices of one size, which must commute."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"need square matrices of equal size, got {a.shape} and {b.shape}")
    scale = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if not float(np.linalg.norm(a @ b - b @ a)) <= COMMUTE_REL_TOL * scale:
        raise NotCommuting("matrices do not commute within tolerance")
    return a, b


@dataclass(frozen=True)
class KoszulAssessment:
    """Exactness measurements of the shifted Koszul complex at one point."""

    point: tuple[complex, complex]
    rank_d1: int
    rank_d2: int
    dim: int
    exact: bool


def koszul_at(a, b, z1: complex, z2: complex, tol: ToleranceConfig = DEFAULT_TOL) -> KoszulAssessment:
    """Exactness assessment of the pair shifted by (z1, z2).

    The ranks are those of :func:`_shifted_blocks` with the cutoff anchored
    at 1, so a shift annihilating a coefficient entirely still reads as
    deficient and neither coefficient's scale swamps the other's.  d2 has
    the singular values of d2* = [-S_B*; S_A*], 2n x n like d1 = [S_A; S_B].
    """
    a, b = _require_commuting(a, b, tol)
    n = a.shape[0]
    sa, sb = _shifted_blocks(a, b, z1, z2)
    sigma = singular_values([np.vstack([sa, sb]), np.vstack([-sb.conj().T, sa.conj().T])])
    rank_d1, rank_d2 = (int(r) for r in rank_decision(sigma, (2 * n, n), 1.0, tol)[0])
    return KoszulAssessment(
        point=(complex(z1), complex(z2)),
        rank_d1=rank_d1,
        rank_d2=rank_d2,
        dim=n,
        exact=(rank_d1 == n and rank_d2 == n),
    )


@dataclass(frozen=True)
class TaylorSpectrum:
    """Joint spectrum points with multiplicities and common-eigenvector witnesses."""

    points: tuple[tuple[complex, complex], ...]
    multiplicities: tuple[int, ...]
    witnesses: tuple[np.ndarray, ...]
    residuals: tuple[tuple[float, float], ...]

    def contains(self, z1: complex, z2: complex, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        return any(_close(p, (z1, z2), tol) for p in self.points)


def _close(p, q, tol: ToleranceConfig) -> bool:
    """Whether q matches the spectrum point p coordinatewise within ``eig_cluster_tol``."""
    return all(abs(x - y) <= tol.eig_cluster_tol * max(1.0, abs(x)) for x, y in zip(p, q))


def _shifted_blocks(a, b, z1: complex, z2: complex) -> tuple[np.ndarray, np.ndarray]:
    """A - z1 I and B - z2 I, each divided by its own term size |M|_F + |z| sqrt(n)."""
    n = a.shape[0]
    blocks = (np.array(a), np.array(b))
    for shifted, m, z in zip(blocks, (a, b), (z1, z2)):
        shifted.flat[:: n + 1] -= complex(z)
        shifted /= max(float(np.linalg.norm(m)) + abs(z) * np.sqrt(n), np.finfo(float).tiny)
    return blocks


def _joint_spectrum(a, b, bases, tol: ToleranceConfig) -> tuple[TaylorSpectrum, list]:
    """Joint points from subspaces span U, each invariant under A and B, and their bases.

    Each cluster of U* B U (on B's own scale, as :func:`eigenvalues` takes
    it) has an invariant subspace span W, and on Q = U W both A and B have
    one eigenvalue: the point (tr(Q* A Q), tr(Q* B Q)) / m, of multiplicity
    m = width of Q (W = I_1 for a one-column U).  Its witness is a common
    eigenvector, whose rank test is the Koszul non-exactness check, from one
    SVD of every point's stacked :func:`_shifted_blocks`; the first point
    without one raises :class:`OracleDisagreement`.  Returns the spectrum
    and each point's Q, the basis of its joint generalized eigenspace.
    """
    n = a.shape[0]
    if not n:
        return TaylorSpectrum((), (), (), ()), []
    b_scale = max(1.0, float(np.linalg.norm(b)) / np.sqrt(n))
    found = []
    for u in bases:
        for w in ((np.eye(1),) if u.shape[1] == 1
                  else invariant_subspaces(u.conj().T @ (b / b_scale) @ u)[1]):
            q = u @ w
            m = q.shape[1]
            found.append((complex(np.trace(q.conj().T @ a @ q)) / m,
                          complex(np.trace(q.conj().T @ b @ q)) / m, q))
    found.sort(key=lambda p: (p[0].real, p[0].imag, p[1].real, p[1].imag))
    stacked = np.array([np.vstack(_shifted_blocks(a, b, z1, z2)) for z1, z2, _ in found],
                       dtype=complex).reshape(len(found), 2 * n, n)
    _, sigma, vh = np.linalg.svd(stacked)
    for (z1, z2, _), rank in zip(found, rank_decision(sigma, (2 * n, n), 1.0, tol)[0]):
        if rank >= n:
            raise OracleDisagreement(f"no common eigenvector at ({z1}, {z2})", point=(z1, z2))
    witnesses = [v[-1].conj() for v in vh]
    spectrum = TaylorSpectrum(
        tuple((z1, z2) for z1, z2, _ in found),
        tuple(q.shape[1] for *_, q in found),
        tuple(witnesses),
        tuple((float(np.linalg.norm(a @ x - z1 * x)), float(np.linalg.norm(b @ x - z2 * x)))
              for (z1, z2, _), x in zip(found, witnesses)),
    )
    return spectrum, [q for *_, q in found]


def taylor_spectrum(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> TaylorSpectrum:
    """Taylor spectrum as the set of joint eigenvalues, with multiplicities.

    Follows the simultaneous triangularization: the invariant subspace of
    each eigenvalue cluster of A is invariant under B too, and splits
    along the clusters of B restricted to it into the joint points.
    """
    a, b = _require_commuting(a, b, tol)
    return _joint_spectrum(a, b, invariant_subspaces(a)[1], tol)[0]


def spectra_match(
    points1, points2, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[bool, list]:
    """Greedy point-set comparison within ``eig_cluster_tol``.

    Returns (equal, mismatches) where mismatches lists points present on
    one side only.
    """
    remaining = list(points2)
    mismatches = []
    for p in points1:
        hit = next((i for i, q in enumerate(remaining) if _close(p, q, tol)), None)
        if hit is None:
            mismatches.append(("first-only", p))
        else:
            remaining.pop(hit)
    mismatches.extend(("second-only", q) for q in remaining)
    return not mismatches, mismatches


def spectrum_via_singularity(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> TaylorSpectrum:
    """Independent check of :func:`taylor_spectrum` through shifted-pencil singularity.

    By the paper's theorem (A - z1) + lam (B - z2) is singular at each
    joint point: one :func:`is_singular` sweep per point.  Completeness and
    multiplicities: det((A - z) + lam B) = prod_k (z1_k - z + lam z2_k)^(m_k)
    to ``det_zero_tol`` relative at n + 1 nodes, the left side from one
    batched ``numpy.linalg.det``, with z = twice the node anchor
    |A| + |lam| |B|, beyond every eigenvalue of A + lam B.  A failure
    raises :class:`OracleDisagreement`.
    """
    direct = taylor_spectrum(a, b, tol)  # validates the pair
    a, b = as_matrix(a), as_matrix(b)
    n = a.shape[0]
    if not n:
        return direct
    for z1, z2 in direct.points:
        if not is_singular(Pencil(a - z1 * np.eye(n), b - z2 * np.eye(n)), tol):
            raise OracleDisagreement(f"regular shifted pencil at ({z1}, {z2})", point=(z1, z2))
    p = Pencil(a, b)
    nodes = det_sample_nodes(p, n + 1)
    stack, anchors = node_stack(p, nodes)
    shift = 2.0 * max(float(anchors[0]), np.finfo(float).tiny)  # every node has the same |lam|
    lhs = np.linalg.det(stack / shift - np.eye(n))
    z1, z2 = np.array(direct.points).T
    rhs = np.prod(((z1 + nodes[:, None] * z2) / shift - 1.0) ** np.array(direct.multiplicities), 1)
    gap = np.abs(lhs - rhs) / np.abs(rhs)
    if gap.max() > tol.det_zero_tol:
        raise OracleDisagreement(f"det((A - z) + lam B) is off the product over the joint points "
                                 f"by {gap.max():.3e} relative", verdicts={"gap": gap})
    return direct


def spectrum_invertible_characterization(
    a, b, tol: ToleranceConfig = DEFAULT_TOL
) -> TaylorSpectrum:
    """Spectrum of an invertible commuting pair by eigenvalue ratios.

    Each joint eigenvalue is (rho z2, z2) for a cluster rho of the pencil
    A - rho B and a cluster z2 of K* B K, where span K is the right
    deflating subspace of rho, invariant under A and B.  QZ on A - rho B in
    place of the Schur form of A keeps this independent of
    :func:`taylor_spectrum`.  Only valid for invertible A and B.
    """
    a, b = _require_commuting(a, b, tol)
    n = a.shape[0]
    if numerical_rank(a, tol) < n or numerical_rank(b, tol) < n:
        raise NotInvertible("both coefficients must be invertible for the ratio form")
    return _joint_spectrum(a, b, invariant_subspaces(a, -b)[1], tol)[0]


def commuting_structure(
    a, b, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[KroneckerStructure, TaylorSpectrum]:
    """Kronecker structure of A + lam B for commuting A, B, read off the joint spectrum.

    When every joint point (alpha_k, beta_k) of :func:`taylor_spectrum` is
    simple, its unit eigenvectors t_k form T, and T^-1 (A, rho B) T is
    diagonal for the balanced pencil (A, rho B), rho = |A|_F / |B|_F.  The
    structure is then one 1 x 1 block per point: J_1(alpha_k / beta_k)
    when rho beta_k is nonzero, N_1 when only alpha_k is, L_0 (+) L_0^T
    when both are zero.  Moving between the coordinates of T and those of
    the pencil magnifies a perturbation by at most kappa = cond(T), so the
    read-off is taken only when the off-diagonal part of that one solve
    (the split's backward error), times kappa, lies a factor
    ``RANK_GUARD`` below the rank cutoff ``rank_rel_tol * scale * n`` of
    the balanced pencil, and each coordinate the blocks are read from,
    |rho beta_k| always and |alpha_k| where beta_k is zero, lies a factor
    ``RANK_GUARD`` * kappa from that cutoff (Bavely & Stewart 1979;
    Demmel 1983).  Otherwise, and whenever a point is multiple,
    :func:`~pencillab.kronecker.staircase_structure` decides the
    structure.  Returns the structure and the Taylor spectrum of the same
    pass.
    """
    return _commuting_structure(*_require_commuting(a, b, tol), tol)


def _commuting_structure(a, b, tol: ToleranceConfig) -> tuple[KroneckerStructure, TaylorSpectrum]:
    """The body of :func:`commuting_structure` on a validated commuting pair."""
    spectrum, bases = _joint_spectrum(a, b, invariant_subspaces(a)[1], tol)
    structure = _simple_point_structure(a, b, spectrum, bases, tol)
    if structure is None:
        structure = staircase_structure(Pencil(a, b), tol)
    return structure, spectrum


def _simple_point_structure(a, b, spectrum: TaylorSpectrum, bases, tol: ToleranceConfig):
    """The 1 x 1 blocks of simple joint points, or None when a decision is unclear."""
    n = a.shape[0]
    if not n:
        return KroneckerStructure()
    if max(spectrum.multiplicities) > 1:
        return None
    p, rho = Pencil(a, b).balanced()
    t = np.hstack(bases)
    kappa = float(np.linalg.cond(t))
    if not kappa < 1.0 / np.finfo(float).eps:  # T is singular to working precision
        return None
    split = np.linalg.solve(t, np.hstack([p.a @ t, p.b @ t]))
    error = float(np.linalg.norm(split[np.tile(~np.eye(n, dtype=bool), 2)]))
    coords = np.abs(np.array(spectrum.points)) * (1.0, rho)
    nonzero, cutoff, margin = rank_decision(coords[..., None], (n, n), p.norm_scale(), tol)
    read = np.column_stack([nonzero[:, 1] == 0, np.ones(n, dtype=bool)])
    if not (kappa * error * RANK_GUARD <= cutoff.min()
            and np.all(margin[read] > RANK_GUARD * kappa)):
        return None
    jordan, nilpotent, zero = [], [], 0
    for (z1, z2), (nonzero_a, nonzero_b) in zip(spectrum.points, nonzero):
        if nonzero_b:
            jordan.append((1, z1 / z2))
        elif nonzero_a:
            nilpotent.append(1)
        else:
            zero += 1
    minimal = [(0, zero)] if zero else []
    return KroneckerStructure(minimal, list(minimal), jordan, nilpotent)


# ---------------------------------------------------------------------------
# the four-condition report


@dataclass(frozen=True)
class ConditionMatrix:
    """Joint report of the four pencil conditions and their witnesses.

    Conditions: (0) the origin lies in the Taylor spectrum, (i) the pencil
    is singular, (ii) the coefficients have a common isotropic vector,
    (iii) the pencil numerical range is the whole plane.
    """

    zero_in_taylor: bool
    pencil_singular: bool
    origin_in_joint_range: bool
    range_is_plane: bool
    koszul: KoszulAssessment
    singularity: SingularityEvidence
    certificate: object
    membership: object
    implications: tuple[tuple[str, bool], ...]


_IMPLICATIONS = (
    ("(0) implies (i)", "zero_in_taylor", "pencil_singular"),
    ("(i) implies (0)", "pencil_singular", "zero_in_taylor"),
    ("(0) implies (ii)", "zero_in_taylor", "origin_in_joint_range"),
    ("(0) implies (iii)", "zero_in_taylor", "range_is_plane"),
    ("(ii) implies (iii)", "origin_in_joint_range", "range_is_plane"),
    ("(i) implies (ii)", "pencil_singular", "origin_in_joint_range"),
)


def condition_matrix(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> ConditionMatrix:
    """Evaluate conditions (0), (i), (ii), (iii) and assert their implications.

    For matrices every implication checked here is a theorem; a failed one
    signals a numerical or logic bug and raises
    :class:`ImplicationViolated`.  Condition (ii) is reported as true only
    when an isotropic certificate was actually found.  A valid separation
    certificate of the hull proves (ii) false, so no search runs then.
    """
    from . import numrange

    koszul = koszul_at(a, b, 0.0, 0.0, tol)  # validates the pair
    a, b = as_matrix(a), as_matrix(b)
    p = Pencil(a, b)
    cond0 = not koszul.exact
    singularity = is_singular(p, tol)
    cond_i = bool(singularity)
    membership = numrange.conv_hull_membership(a, b, tol)
    cond_iii = membership.verdict in ("inside", "boundary")

    certificate = None
    if cond_i:
        certificate = numrange._singular_certificate(p)
    elif membership.certificate is None or not membership.certificate.is_valid(a, b):
        certificate = numrange.isotropic_search(a, b, tol)
    cond_ii = certificate is not None and certificate.is_valid(a, b)
    certificate = certificate if cond_ii else None

    values = {
        "zero_in_taylor": cond0,
        "pencil_singular": cond_i,
        "origin_in_joint_range": cond_ii,
        "range_is_plane": cond_iii,
    }
    checked = []
    for name, hyp, concl in _IMPLICATIONS:
        ok = (not values[hyp]) or values[concl]
        checked.append((name, ok))
        if not ok:
            raise ImplicationViolated(
                f"theorem-guaranteed implication failed: {name} with conditions {values}",
                conditions=values,
            )
    return ConditionMatrix(
        zero_in_taylor=cond0,
        pencil_singular=cond_i,
        origin_in_joint_range=cond_ii,
        range_is_plane=cond_iii,
        koszul=koszul,
        singularity=singularity,
        certificate=certificate,
        membership=membership,
        implications=tuple(checked),
    )


def commuting_analysis(
    a, b, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[KroneckerStructure, TaylorSpectrum, ConditionMatrix] | None:
    """Structure, Taylor spectrum and conditions of a square pair, or None if it does not commute.

    The paper's theorem cross-checks the two: the structure of
    :func:`commuting_structure` has minimal indices exactly when condition
    (i), the singularity sweep of :func:`condition_matrix`, holds, or
    :class:`ImplicationViolated` is raised.
    """
    try:
        conditions = condition_matrix(a, b, tol)  # validates the pair
    except NotCommuting:
        return None
    structure, spectrum = _commuting_structure(as_matrix(a), as_matrix(b), tol)
    if bool(structure.col_minimal or structure.row_minimal) != conditions.pencil_singular:
        raise ImplicationViolated(
            f"the structure read off the joint spectrum has minimal indices "
            f"{structure.col_minimal} and {structure.row_minimal}, but the singularity "
            f"sweep says singular={conditions.pencil_singular}")
    return structure, spectrum, conditions


# ---------------------------------------------------------------------------
# finite truncations of the shift construction


def truncated_shift(n: int) -> np.ndarray:
    """n x n truncation of the unilateral shift: ones on the first subdiagonal."""
    if n < 1:
        raise ValueError("truncation size must be >= 1")
    return np.diag(np.ones(n - 1, dtype=complex), -1)


def shift_truncation_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The commuting 2n x 2n pair (I (+) M_n, M_n (+) I).

    Its pencil determinant is lam**n, so the pencil is never singular at
    any finite truncation even though both coefficients are singular.
    """
    m = truncated_shift(n)
    eye = np.eye(n, dtype=complex)
    a = np.block([[eye, np.zeros((n, n))], [np.zeros((n, n)), m]])
    b = np.block([[m, np.zeros((n, n))], [np.zeros((n, n)), eye]])
    return as_matrix(a), as_matrix(b)


def invertible_shift_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The invertible commuting 2n x 2n pair (3I (+) (M_n+2I), (M_n+2I) (+) 3I)."""
    m = truncated_shift(n) + 2.0 * np.eye(n, dtype=complex)
    three = 3.0 * np.eye(n, dtype=complex)
    zero = np.zeros((n, n))
    a = np.block([[three, zero], [zero, m]])
    b = np.block([[m, zero], [zero, three]])
    return as_matrix(a), as_matrix(b)
