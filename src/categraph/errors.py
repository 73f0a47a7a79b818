"""Exception types raised across the package."""


class CategraphError(Exception):
    """Base class for all package errors."""


# graph model
class InvalidNode(CategraphError, ValueError):
    """A node id is outside the graph's 0..N-1 range."""


class UnknownCategory(CategraphError):
    """A category id is not part of the partition."""


class SelfPairNotSupported(CategraphError):
    """Intra-category pairs (A, A) have no defined edge weight."""


class EmptyCategory(CategraphError):
    """Mean degree requested for a category with no members."""


class EmptyGraph(CategraphError):
    """Operation needs at least one node."""


# generators
class InvalidParameter(CategraphError):
    """A generator parameter is outside its range (negative degree or
    edge count, empty category)."""


class InfeasibleRegularGraph(CategraphError):
    """No simple k-regular graph exists for the requested size/degree."""


class GenerationFailed(CategraphError):
    """Random regular graph generation hit the retry limit."""


class TooManyEdgesRequested(CategraphError):
    """More inter-category edges requested than free node pairs."""


# samplers
class InvalidWeight(CategraphError):
    """Sampling or category weights must be positive and finite."""


class IsolatedStartNode(CategraphError):
    """Walks cannot start from a degree-zero node."""


class InvalidThinning(CategraphError):
    """Thinning interval must be a positive integer."""


# estimators
class EmptySample(CategraphError):
    """Estimation needs at least one draw."""


class WrongObservationMode(CategraphError):
    """Estimator requires the other observation mode."""


class InsufficientSample(CategraphError):
    """No draws available where the estimator formula needs them."""


class MissingSizeEstimate(CategraphError):
    """Edge-weight estimation needs a size estimate that was not supplied."""


# evaluation
class UndefinedNRMSE(CategraphError):
    """NRMSE is undefined when the true value is zero."""


# file formats
class FileFormatError(CategraphError):
    """A data file failed to parse; message carries the line number."""
