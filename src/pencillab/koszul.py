"""Taylor spectrum of commuting matrix pairs via Koszul exactness.

For matrices the two-step Koszul complex is exact at a point exactly when
the stacked map h -> (T1 h, T2 h) is injective and the flattened map
(h1, h2) -> -T2 h1 + T1 h2 is surjective; the middle homology then
vanishes automatically because the composite is zero.  The spectrum comes
from invariant subspaces, as in the simultaneous triangularization of a
commuting pair, checked by shifted-pencil singularity and a determinant
identity, or by the deflating subspaces of A - rho B for invertible pairs.
Each decision is one batched SVD of one :func:`_shifted_stack`, built in
one broadcast: of both Koszul differentials at a point, or of the shifted
pairs of every joint point for their witnesses; ranks count singular
values above the cutoff (:func:`~pencillab.linalg.rank_count`).

The Kronecker structure of a commuting pencil is read off the same joint
eigenvectors when every joint point is simple and each decision clears
its guard band by the conditioning of the eigenvector basis
(:func:`commuting_structure`); otherwise, and for every pencil that is
not square and commuting, :func:`~pencillab.kronecker.staircase_structure`
decides it.  ``analyze`` takes a commuting pair's structure, spectrum and
conditions from :func:`commuting_analysis`, which computes the joint
spectrum once for the structure and, on a normal pair, for condition
(ii).  Each public function validates its pair once: one that calls
another lets the callee validate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import ImplicationViolated, NotCommuting, NotInvertible, OracleDisagreement
from .kronecker import KroneckerStructure, SingularityEvidence, is_singular, staircase_structure
from .linalg import (RANK_GUARD, TINY, invariant_subspaces, node_stack, numerical_rank,
                     rank_count, rank_decision, singular_values)
from .pencil import Pencil, as_matrix

COMMUTE_REL_TOL = 1e-10
# coordinatewise relative gap within which two computed joint points are one point
POINT_MATCH_REL_TOL = 1e-8
# relative gap allowed between the two sides of spectrum_via_singularity's determinant identity
DET_IDENTITY_REL_TOL = 1e-9


def check_commuting(a, b) -> bool:
    """Whether AB = BA up to 1e-10 relative to |A| |B|."""
    try:
        _require_commuting(a, b)
    except NotCommuting:
        return False
    return True


def _require_commuting(a, b):
    """A and B validated as square matrices of one size that commute, and (|A|_F, |B|_F)."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"need square matrices of equal size, got {a.shape} and {b.shape}")
    norms = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if not float(np.linalg.norm(a @ b - b @ a)) <= COMMUTE_REL_TOL * (norms[0] * norms[1]):
        raise NotCommuting("matrices do not commute within tolerance")
    return a, b, norms


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

    d1 = [S_A; S_B] of :func:`_shifted_stack` and d2* = [-S_B*; S_A*], 2n x n
    like d1 with d2's singular values, fill one stack for one values-only
    SVD; each rank counts singular values above the cutoff anchored at 1.
    """
    a, b, norms = _require_commuting(a, b)
    n = a.shape[0]
    stack = np.empty((2, 2 * n, n), dtype=complex)
    _shifted_stack(a, b, norms, [(z1, z2)], stack[:1])
    stack[1, :n], stack[1, n:] = -stack[0, n:].conj().T, stack[0, :n].conj().T
    rank_d1, rank_d2 = rank_count(singular_values(stack), (2 * n, n), 1.0, tol).tolist()
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

    def contains(self, z1: complex, z2: complex) -> bool:
        return any(_close(p, (z1, z2)) for p in self.points)


def _close(p, q) -> bool:
    """Whether q matches the spectrum point p coordinatewise within ``POINT_MATCH_REL_TOL``."""
    return all(abs(x - y) <= POINT_MATCH_REL_TOL * max(1.0, abs(x)) for x, y in zip(p, q))


def _shifted_stack(a, b, norms, points, out: np.ndarray) -> np.ndarray:
    """``out`` (m x 2n x n) filled with [S_A; S_B] at each of m points (z1, z2), and returned.

    S_M = M - z I over its term size |M|_F + |z| sqrt(n) (``norms`` holds the
    |M|_F): with the cutoff anchored at 1, a shift annihilating a coefficient
    still reads as deficient, and neither scale swamps the other.
    """
    n, m = a.shape[0], len(points)
    blocks = out.reshape(m, 2, n, n)
    blocks[:] = a, b
    blocks.reshape(m, 2, n * n)[..., :: n + 1] -= np.array(points, dtype=complex)[..., None]
    root_n = np.sqrt(n)
    blocks /= np.array([[max(norm + abs(z) * root_n, TINY) for norm, z in zip(norms, point)]
                        for point in points])[..., None, None]
    return out


def _joint_spectrum(a, b, bases, tol: ToleranceConfig) -> tuple[TaylorSpectrum, list]:
    """Joint points from subspaces span U, each invariant under A and B, and their bases.

    Each cluster of U* B U (on B's own scale, as :func:`eigenvalues` takes
    it) has an invariant subspace span W, and on Q = U W both A and B have
    one eigenvalue: the point (tr(Q* A Q), tr(Q* B Q)) / m, of multiplicity
    m = width of Q (W = I_1 for a one-column U).  Its witness is a common
    eigenvector, whose rank test is the Koszul non-exactness check, from one
    SVD of every point's :func:`_shifted_stack`, built in one broadcast; the
    first point without one raises :class:`OracleDisagreement`.  Returns the
    spectrum and each point's Q, the basis of its joint generalized eigenspace.
    """
    n = a.shape[0]
    if not n:
        return TaylorSpectrum((), (), (), ()), []
    norms = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    b_scale = max(1.0, norms[1] / np.sqrt(n))
    found = []
    for u in bases:
        for w in ((np.eye(1),) if u.shape[1] == 1
                  else invariant_subspaces(u.conj().T @ (b / b_scale) @ u)[1]):
            q = u @ w
            m = q.shape[1]
            found.append((complex(np.trace(q.conj().T @ a @ q)) / m,
                          complex(np.trace(q.conj().T @ b @ q)) / m, q))
    found.sort(key=lambda p: (p[0].real, p[0].imag, p[1].real, p[1].imag))
    points = [(z1, z2) for z1, z2, _ in found]
    stack = _shifted_stack(a, b, norms, points, np.empty((len(points), 2 * n, n), dtype=complex))
    _, sigma, vh = np.linalg.svd(stack)
    for (z1, z2), rank in zip(points, rank_count(sigma, (2 * n, n), 1.0, tol)):
        if rank >= n:
            raise OracleDisagreement(f"no common eigenvector at ({z1}, {z2})", point=(z1, z2))
    witnesses = vh[:, -1].conj()
    residuals = [np.linalg.norm(witnesses @ m.T - z[:, None] * witnesses, axis=1).tolist()
                 for m, z in zip((a, b), np.array(points).T)]
    spectrum = TaylorSpectrum(
        tuple(points),
        tuple(q.shape[1] for *_, q in found),
        tuple(witnesses),
        tuple(zip(*residuals)),
    )
    return spectrum, [q for *_, q in found]


def _schur_joint_spectrum(a, b, tol: ToleranceConfig) -> tuple[TaylorSpectrum, list]:
    """:func:`_joint_spectrum` on the Schur subspaces of A's eigenvalue clusters."""
    return _joint_spectrum(a, b, invariant_subspaces(a)[1], tol)


def taylor_spectrum(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> TaylorSpectrum:
    """Taylor spectrum as the set of joint eigenvalues, with multiplicities.

    Follows the simultaneous triangularization: the invariant subspace of
    each eigenvalue cluster of A is invariant under B too, and splits
    along the clusters of B restricted to it into the joint points.
    """
    a, b, _ = _require_commuting(a, b)
    return _schur_joint_spectrum(a, b, tol)[0]


def spectra_match(points1, points2) -> tuple[bool, list]:
    """Greedy point-set comparison, each pair of points within ``POINT_MATCH_REL_TOL``.

    Returns (equal, mismatches) where mismatches lists points present on
    one side only.
    """
    remaining = list(points2)
    mismatches = []
    for p in points1:
        hit = next((i for i, q in enumerate(remaining) if _close(p, q)), None)
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
    at n + 1 nodes, the left side from one batched ``numpy.linalg.det``,
    with z = twice the node anchor |A| + |lam| |B|, beyond every eigenvalue
    of A + lam B.  The two sides must agree to the fixed
    ``DET_IDENTITY_REL_TOL`` relative, which no tolerance setting moves.
    A failure raises :class:`OracleDisagreement`.
    """
    direct = taylor_spectrum(a, b, tol)  # validates the pair
    a, b = as_matrix(a), as_matrix(b)
    n = a.shape[0]
    if not n:
        return direct
    for z1, z2 in direct.points:
        if not is_singular(Pencil._of_valid(a - z1 * np.eye(n), b - z2 * np.eye(n)), tol):
            raise OracleDisagreement(f"regular shifted pencil at ({z1}, {z2})", point=(z1, z2))
    nodes, stack, anchors = node_stack(Pencil._of_valid(a, b))
    shift = 2.0 * max(float(anchors[0]), TINY)  # every node has the same |lam|
    lhs = np.linalg.det(stack / shift - np.eye(n))
    z1, z2 = np.array(direct.points).T
    rhs = np.prod(((z1 + nodes[:, None] * z2) / shift - 1.0) ** np.array(direct.multiplicities), 1)
    gap = np.abs(lhs - rhs) / np.abs(rhs)
    if gap.max() > DET_IDENTITY_REL_TOL:
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
    a, b, _ = _require_commuting(a, b)
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
    a, b, _ = _require_commuting(a, b)
    spectrum, bases = _schur_joint_spectrum(a, b, tol)
    return _commuting_structure(a, b, spectrum, bases, tol), spectrum


def _commuting_structure(a, b, spectrum: TaylorSpectrum, bases,
                         tol: ToleranceConfig) -> KroneckerStructure:
    """The body of :func:`commuting_structure` on a validated pair and its joint spectrum."""
    structure = _simple_point_structure(a, b, spectrum, bases, tol)
    return staircase_structure(Pencil(a, b), tol) if structure is None else structure


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
    :class:`ImplicationViolated`.  Condition (ii) is true only with a valid
    isotropic certificate.  On a singular pencil it is built from the
    polynomial kernel vector that proved (i), so one kernel walk serves
    both.  A valid separation certificate of the hull proves (ii) false.
    Otherwise, on a normal pair (M commutes with M* for M = A, B, as
    :func:`check_commuting` tests it), W(A, B) is the convex hull of the
    joint points (Horn & Johnson, Thm 2.5.5), and the vector of their
    min-norm convex combination (``"joint-eigenvectors"``) decides (ii)
    alone, once the joint eigenspaces it is built from check as
    orthonormal and invariant; a hull verdict "inside" that it misses by
    more than the two oracles' tolerances allow raises
    :class:`OracleDisagreement`.  Only a pair that is not normal, or whose
    eigenspaces fail that check, runs
    :func:`~pencillab.numrange.isotropic_search`.  Condition (iii) is the
    verdict of :func:`~pencillab.numrange.conv_hull_membership`.
    """
    koszul = koszul_at(a, b, 0.0, 0.0, tol)  # validates the pair
    return _condition_matrix(as_matrix(a), as_matrix(b), koszul, None, tol)


def _condition_matrix(a, b, koszul: KoszulAssessment, joint,
                      tol: ToleranceConfig) -> ConditionMatrix:
    """The body of :func:`condition_matrix` on a validated pair.

    ``koszul`` is the pair's assessment at the origin, and ``joint`` its
    (spectrum, bases) from :func:`_schur_joint_spectrum`, or None when
    the caller has not computed them.
    """
    from . import numrange

    p = Pencil(a, b)
    cond0 = not koszul.exact
    singularity = is_singular(p, tol)
    cond_i = bool(singularity)
    membership = numrange.conv_hull_membership(a, b)
    cond_iii = membership.verdict in ("inside", "boundary")

    certificate = None
    if cond_i:
        certificate = numrange._singular_certificate(p, tol, singularity.kernel)
    elif membership.certificate is None or not membership.certificate.is_valid(a, b):
        if check_commuting(a, a.conj().T) and check_commuting(b, b.conj().T):
            spectrum, bases = joint or _schur_joint_spectrum(a, b, tol)
            certificate = numrange._joint_eigenvector_certificate(a, b, spectrum.points, bases)
        if certificate is None:
            certificate = numrange.isotropic_search(a, b, tol)
        elif membership.verdict == "inside" and not certificate.is_valid(a, b):
            _require_hull_agreement(a, b, certificate, membership)
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


def _require_hull_agreement(a, b, certificate, membership) -> None:
    """Raise :class:`OracleDisagreement` if the joint-eigenvector vector misses an "inside" hull.

    The hull's point lies within ``INSIDE_SLACK`` times its scale of the
    origin, and W(A, B) within 3 tau of the hull of the joint points (tau =
    ``JOINT_BASIS_REL_TOL``, scaled coordinates), so the min-norm point of
    that hull lies within slack * scale + 3 sqrt(2) tau of the origin, and
    each residual of the vector, over its coefficient's norm, within 4 tau
    more.  A vector that misses by less is left invalid, with (ii) false.
    """
    from . import numrange

    miss = (np.array([certificate.residual_a, certificate.residual_b])
            / numrange._coefficient_norms(a, b)[::2])
    allowed = numrange.INSIDE_SLACK * membership.scale + 10.0 * numrange.JOINT_BASIS_REL_TOL
    if miss.max() > allowed:
        raise OracleDisagreement(
            f"the hull of W(A, B) holds the origin, but the joint eigenvectors of the "
            f"normal pair miss it by {miss.max():.3e} relative, above {allowed:.3e}",
            verdicts={"hull": membership.verdict,
                      "residuals": (certificate.residual_a, certificate.residual_b)})


def commuting_analysis(
    a, b, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[KroneckerStructure, TaylorSpectrum, ConditionMatrix] | None:
    """Structure, Taylor spectrum and conditions of a square pair, or None if it does not commute.

    The pair is validated and its joint spectrum computed once; the
    spectrum and the bases of its joint eigenspaces serve both the
    structure read-off of :func:`commuting_structure` and, on a normal
    pair, the isotropic vector of :func:`condition_matrix`.  The paper's
    theorem cross-checks the two: the structure has minimal indices
    exactly when condition (i), the singularity sweep of
    :func:`condition_matrix`, holds, or :class:`ImplicationViolated` is
    raised.
    """
    try:
        koszul = koszul_at(a, b, 0.0, 0.0, tol)  # validates the pair
    except NotCommuting:
        return None
    a, b = as_matrix(a), as_matrix(b)
    spectrum, bases = _schur_joint_spectrum(a, b, tol)
    conditions = _condition_matrix(a, b, koszul, (spectrum, bases), tol)
    structure = _commuting_structure(a, b, spectrum, bases, tol)
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
