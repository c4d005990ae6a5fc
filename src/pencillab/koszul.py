"""Taylor spectrum of commuting matrix pairs via Koszul exactness.

For matrices the two-step Koszul complex is exact at a point exactly when
the stacked map h -> (T1 h, T2 h) is injective and the flattened map
(h1, h2) -> -T2 h1 + T1 h2 is surjective; the middle homology then
vanishes automatically because the composite is zero.  The spectrum is
computed three independent ways (common eigenvectors, shifted-pencil
singularity, eigenvalue-ratio filtering) that are required to agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import ImplicationViolated, NotCommuting, NotInvertible, OracleDisagreement
from .kronecker import SingularityEvidence, is_singular
from .linalg import eigenvalues, numerical_rank, pencil_eigenvalues, rank_decision, svd
from .pencil import Pencil, as_matrix

COMMUTE_REL_TOL = 1e-10


def check_commuting(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether AB = BA up to 1e-10 relative to |A| |B|."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"need square matrices of equal size, got {a.shape} and {b.shape}")
    scale = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    return float(np.linalg.norm(a @ b - b @ a)) <= COMMUTE_REL_TOL * scale


def _require_commuting(a, b, tol: ToleranceConfig):
    a = as_matrix(a)
    b = as_matrix(b)
    if not check_commuting(a, b, tol):
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

    Rank cutoffs are anchored to the unshifted pair's magnitude so that a
    shift annihilating a coefficient entirely still reads as deficient.
    """
    a, b = _require_commuting(a, b, tol)
    n = a.shape[0]
    sa = a - complex(z1) * np.eye(n)
    sb = b - complex(z2) * np.eye(n)
    scale = _pair_scale(a, b, z1, z2)
    rank_d1 = numerical_rank(np.vstack([sa, sb]), tol, scale=scale)
    rank_d2 = numerical_rank(np.hstack([-sb, sa]), tol, scale=scale)
    return KoszulAssessment(
        point=(complex(z1), complex(z2)),
        rank_d1=rank_d1,
        rank_d2=rank_d2,
        dim=n,
        exact=(rank_d1 == n and rank_d2 == n),
    )


@dataclass(frozen=True)
class TaylorSpectrum:
    """Joint spectrum points with common-eigenvector witnesses."""

    points: tuple[tuple[complex, complex], ...]
    witnesses: tuple[np.ndarray, ...]
    residuals: tuple[tuple[float, float], ...]

    def contains(self, z1: complex, z2: complex, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        radius = tol.eig_cluster_tol
        for p1, p2 in self.points:
            if abs(p1 - z1) <= radius * max(1.0, abs(p1)) and abs(p2 - z2) <= radius * max(
                1.0, abs(p2)
            ):
                return True
        return False


def _pair_scale(a, b, z1: complex = 0.0, z2: complex = 0.0) -> float:
    return max(float(np.linalg.norm(a)), float(np.linalg.norm(b))) * max(
        1.0, abs(z1), abs(z2)
    )


def _candidate_grid(a, b) -> list[tuple[complex, complex]]:
    sa = eigenvalues(a)
    sb = eigenvalues(b)
    grid = [(z1, z2) for z1 in sa.values for z2 in sb.values]
    grid.sort(key=lambda p: (p[0].real, p[0].imag, p[1].real, p[1].imag))
    return grid


def _common_eigenvector(a, b, z1, z2, tol: ToleranceConfig):
    """Smallest singular direction of the stacked shifted pair, if deficient."""
    n = a.shape[0]
    stacked = np.vstack([a - z1 * np.eye(n), b - z2 * np.eye(n)])
    u, s, v = svd(stacked)
    if rank_decision(s, stacked.shape, _pair_scale(a, b, z1, z2), tol)[0] >= n:
        return None
    return np.ascontiguousarray(v[:, -1])


def taylor_spectrum(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> TaylorSpectrum:
    """Taylor spectrum as the set of joint eigenvalues.

    Candidates range over the eigenvalue product grid; a candidate is kept
    when the shifted pair has a common kernel direction, which is the
    witness recorded with its residuals.
    """
    a, b = _require_commuting(a, b, tol)
    points = []
    witnesses = []
    residuals = []
    for z1, z2 in _candidate_grid(a, b):
        x = _common_eigenvector(a, b, z1, z2, tol)
        if x is None:
            continue
        points.append((z1, z2))
        witnesses.append(x)
        n = a.shape[0]
        residuals.append(
            (
                float(np.linalg.norm((a - z1 * np.eye(n)) @ x)),
                float(np.linalg.norm((b - z2 * np.eye(n)) @ x)),
            )
        )
    return TaylorSpectrum(tuple(points), tuple(witnesses), tuple(residuals))


def spectra_match(
    points1, points2, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[bool, list]:
    """Greedy point-set comparison within ``eig_cluster_tol``.

    Returns (equal, mismatches) where mismatches lists points present on
    one side only.
    """
    radius = tol.eig_cluster_tol

    def close(p, q):
        return abs(p[0] - q[0]) <= radius * max(1.0, abs(p[0])) and abs(
            p[1] - q[1]
        ) <= radius * max(1.0, abs(p[1]))

    remaining = list(points2)
    mismatches = []
    for p in points1:
        hit = next((i for i, q in enumerate(remaining) if close(p, q)), None)
        if hit is None:
            mismatches.append(("first-only", p))
        else:
            remaining.pop(hit)
    mismatches.extend(("second-only", q) for q in remaining)
    return not mismatches, mismatches


def spectrum_via_singularity(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> TaylorSpectrum:
    """Independent spectrum oracle through shifted-pencil singularity.

    A candidate belongs to the spectrum exactly when the pencil
    (A - z1) + lam (B - z2) is singular.  The result is cross-checked
    against :func:`taylor_spectrum`; any difference raises
    :class:`OracleDisagreement` with the offending point.
    """
    a, b = _require_commuting(a, b, tol)
    n = a.shape[0]
    direct = taylor_spectrum(a, b, tol)
    points = []
    witnesses = []
    residuals = []
    for z1, z2 in _candidate_grid(a, b):
        shifted = Pencil(a - z1 * np.eye(n), b - z2 * np.eye(n))
        verdict = is_singular(shifted, tol)
        member = direct.contains(z1, z2, tol)
        if bool(verdict) != member:
            raise OracleDisagreement(
                f"shifted-pencil singularity disagrees with the kernel test at ({z1}, {z2})",
                point=(z1, z2),
                verdicts={"singular_pencil": bool(verdict), "common_eigenvector": member},
            )
        if verdict:
            x = _common_eigenvector(a, b, z1, z2, tol)
            points.append((z1, z2))
            witnesses.append(x)
            residuals.append(
                (
                    float(np.linalg.norm((a - z1 * np.eye(n)) @ x)),
                    float(np.linalg.norm((b - z2 * np.eye(n)) @ x)),
                )
            )
    return TaylorSpectrum(tuple(points), tuple(witnesses), tuple(residuals))


def spectrum_invertible_characterization(
    a, b, tol: ToleranceConfig = DEFAULT_TOL
) -> TaylorSpectrum:
    """Spectrum of an invertible commuting pair by eigenvalue ratios.

    Keeps the candidate (z1, z2) when z1/z2 matches a spectrum point of
    the pencil A - lam B within ``100 * eig_cluster_tol`` relative, the
    rule :func:`~pencillab.kronecker.structures_match` uses, and the rank
    of A - (z1/z2) B drops.  Only valid for invertible A and B, where the
    candidate second coordinate can never vanish.
    """
    a, b = _require_commuting(a, b, tol)
    n = a.shape[0]
    if numerical_rank(a, tol) < n or numerical_rank(b, tol) < n:
        raise NotInvertible("both coefficients must be invertible for the ratio form")
    ratios = pencil_eigenvalues(Pencil(a, -b), tol).values
    radius = 100 * tol.eig_cluster_tol
    scale = _pair_scale(a, b)

    points = []
    witnesses = []
    residuals = []
    for z1, z2 in _candidate_grid(a, b):
        if abs(z2) <= tol.eig_cluster_tol or abs(z1) <= tol.eig_cluster_tol:
            raise NotInvertible("candidate on a coordinate axis contradicts invertibility")
        ratio = z1 / z2
        if not any(abs(ratio - lam) <= radius * max(1.0, abs(lam)) for lam in ratios):
            continue
        shifted = a - ratio * b
        if numerical_rank(shifted, tol, scale=scale * max(1.0, abs(ratio))) >= n:
            continue
        x = _common_eigenvector(a, b, z1, z2, tol)
        points.append((z1, z2))
        if x is not None:
            witnesses.append(x)
            residuals.append(
                (
                    float(np.linalg.norm((a - z1 * np.eye(n)) @ x)),
                    float(np.linalg.norm((b - z2 * np.eye(n)) @ x)),
                )
            )
        else:
            witnesses.append(np.zeros(n, dtype=complex))
            residuals.append((float("inf"), float("inf")))
    return TaylorSpectrum(tuple(points), tuple(witnesses), tuple(residuals))


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
    ("(0) implies (ii)", "zero_in_taylor", "origin_in_joint_range"),
    ("(0) implies (iii)", "zero_in_taylor", "range_is_plane"),
    ("(ii) implies (iii)", "origin_in_joint_range", "range_is_plane"),
    ("(i) implies (ii)", "pencil_singular", "origin_in_joint_range"),
)


def condition_matrix(a, b, tol: ToleranceConfig = DEFAULT_TOL,
                     search_restarts: int = 400) -> ConditionMatrix:
    """Evaluate conditions (0), (i), (ii), (iii) and assert their implications.

    For matrices every implication checked here is a theorem; a failed one
    signals a numerical or logic bug and raises
    :class:`ImplicationViolated`.  Condition (ii) is reported as true only
    when an isotropic certificate was actually found; no claim of
    non-membership is ever made.
    """
    from . import numrange

    a, b = _require_commuting(a, b, tol)
    p = Pencil(a, b)
    koszul = koszul_at(a, b, 0.0, 0.0, tol)
    cond0 = not koszul.exact
    singularity = is_singular(p, tol)
    cond_i = bool(singularity)

    certificate = None
    if cond_i:
        certificate = numrange._singular_certificate(p, tol)
    else:
        certificate = numrange.isotropic_search(a, b, tol, restarts=search_restarts)
    cond_ii = certificate is not None and certificate.is_valid(a, b)
    if not cond_ii:
        certificate = None

    membership = numrange.conv_hull_membership(a, b, tol)
    cond_iii = membership.verdict in ("inside", "boundary")

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
