"""Exception taxonomy shared by all pencillab modules."""


class PencilLabError(Exception):
    """Base class for every error raised by this package."""


class InvalidMatrix(PencilLabError):
    """Input is not a well-formed finite complex matrix."""


class InvalidStructure(PencilLabError):
    """A block-structure description fails its shape arithmetic."""


class DecompositionError(PencilLabError):
    """An underlying factorization (SVD, QR eigensolve) did not converge.

    Carries whatever diagnostic detail the backend reported.
    """

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class SingularPencil(PencilLabError):
    """``is_singular`` proved the pencil singular, so it has no eigenvalues."""


class RankDecisionUnstable(PencilLabError):
    """A staircase rank decision fell too close to the tolerance cutoff.

    ``sigma`` is the ambiguous singular value, ``threshold`` the cutoff it
    was compared against.
    """

    def __init__(self, message, sigma=None, threshold=None):
        super().__init__(message)
        self.sigma = sigma
        self.threshold = threshold


class NotCommuting(PencilLabError):
    """Operation requires a commuting pair of matrices."""


class NotInvertible(PencilLabError):
    """Operation requires invertible coefficient matrices."""


class NotSingular(PencilLabError):
    """Operation requires a singular pencil."""


class TransformUnavailable(PencilLabError):
    """No numerically trustworthy transforms or constructive certificate could be produced."""


class EqualityConditionFails(PencilLabError):
    """The pencil's block multiplicities are not in the equality case."""


class OracleDisagreement(PencilLabError):
    """Two independent computations of the same set disagree.

    ``point`` carries the offending spectrum point, ``verdicts`` the two
    conflicting answers.
    """

    def __init__(self, message, point=None, verdicts=None):
        super().__init__(message)
        self.point = point
        self.verdicts = verdicts


class ImplicationViolated(PencilLabError):
    """A guaranteed implication between pencil conditions failed numerically."""

    def __init__(self, message, conditions=None):
        super().__init__(message)
        self.conditions = conditions
