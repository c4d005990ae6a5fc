"""Numerical tolerance settings.

Every rank and spectrum-comparison decision in the package is made
against thresholds collected in one immutable :class:`ToleranceConfig`
value, so that reports can state exactly which cutoffs produced them.
Singularity is one of those rank decisions: it is read off the smallest
singular value at each node against ``rank_rel_tol``, with no cutoff of
its own.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    """Thresholds used by rank and spectrum decisions.

    rank_rel_tol
        Cutoff for numerical rank: singular values at or below
        ``rank_rel_tol * max(sigma_1, scale) * max(rows, cols)`` count as
        zero, where ``scale`` anchors the cutoff to an ambient magnitude
        (0 for a purely relative cutoff; |A| + |lam| |B| at a node
        lam of a pencil sweep).  A singular value within a factor 10 of
        the cutoff makes the decision untrustworthy.
    eig_cluster_tol
        Relative tolerance for comparing two given spectrum points
        (``structures_match`` allows 100 times it).  It sets no
        clustering radius: eigenvalue clusters come from each
        eigenvalue's own perturbation disc.
    rng_seed
        Seed for every internal randomized step (the isotropic and
        multiplier searches), so results are reproducible.
    """

    rank_rel_tol: float = 1e-10
    eig_cluster_tol: float = 1e-8
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("rank_rel_tol", "eig_cluster_tol"):
            value = getattr(self, name)
            if not (value > 0.0):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be a nonnegative integer, got {self.rng_seed!r}")


DEFAULT_TOL = ToleranceConfig()
