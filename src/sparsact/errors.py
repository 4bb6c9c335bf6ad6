"""Exception hierarchy shared across the package."""


class SparsactError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(SparsactError, ValueError):
    """Matrix dimensions are inconsistent with the declared sizes."""


class NonHurwitzError(SparsactError):
    """An operation required a Hurwitz state matrix and did not get one."""


class NonzeroFeedthroughError(SparsactError):
    """H2 norm requested for a realization with nonzero feedthrough."""


class ModelingError(SparsactError):
    """Invalid LMI expression (bilinear term, unknown variable, bad shape)."""


class InfeasiblePerformance(SparsactError):
    """No controller meets the requested performance bound."""


class SynthesisNumericalError(SparsactError):
    """The SDP solver stopped without a usable certificate."""

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class ReconstructionFailure(SparsactError):
    """Controller recovery failed (singular or ill-conditioned factor)."""


class ReducedInfeasible(SparsactError):
    """Pruned model cannot meet the performance bound.

    Carries the threshold that produced the pruning so the caller can relax it.
    """

    def __init__(self, message, threshold=None):
        super().__init__(message)
        self.threshold = threshold
