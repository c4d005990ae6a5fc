"""Numerical tolerance settings.

Every rank decision in the package is made against the one cutoff held
in an immutable :class:`ToleranceConfig` value, so that reports can state
exactly which cutoff produced them.  Singularity is one of those rank
decisions: it is read off the smallest singular value at each node
against ``rank_rel_tol``, with no cutoff of its own.  Comparisons of two
computed spectra use fixed module constants that no setting moves.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    """The rank cutoff and the seed of every randomized step.

    rank_rel_tol
        Cutoff for numerical rank: singular values at or below
        ``rank_rel_tol * max(sigma_1, scale) * max(rows, cols)`` count as
        zero, where ``scale`` anchors the cutoff to an ambient magnitude
        (0 for a purely relative cutoff; |A| + |lam| |B| at a node
        lam of a pencil sweep).  A singular value within a factor 10 of
        the cutoff makes the decision untrustworthy.
    rng_seed
        Seed of the one internal randomized step, the isotropic search,
        so its results are reproducible.
    """

    rank_rel_tol: float = 1e-10
    rng_seed: int = 0

    def __post_init__(self):
        if not (self.rank_rel_tol > 0.0):
            raise ValueError(f"rank_rel_tol must be strictly positive, got {self.rank_rel_tol!r}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be a nonnegative integer, got {self.rng_seed!r}")


DEFAULT_TOL = ToleranceConfig()
