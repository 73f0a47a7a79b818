"""Exception types raised across the package, and the one rule each for
the counts, the finite numbers and the draw weights a caller passes in."""
import sys
from numbers import Integral, Real

import numpy as np


class CategraphError(Exception):
    """Base class for all package errors."""


# input rules
class InvalidParameter(CategraphError, ValueError):
    """A count or generator parameter is outside its range or of the
    wrong type."""


class InvalidThinning(InvalidParameter):
    """Thinning interval must be a positive integer."""


# the least value of each count every layer, flag and file takes
COUNT_FLOORS = {"n": 1, "walks": 1, "burn_in": 0, "thin_interval": 1,
                "B": 2, "replicates": 2, "seed": 0, "k": 0,
                "category_sizes": 1, "inter_edge_count": 0}


def check_count(value, row: str, name: str | None = None) -> int:
    """``value`` as an int once it is an integer (numpy's too, not a bool)
    at least the floor of ``row``; else InvalidParameter, InvalidThinning
    for the thinning row, naming it ``name`` or the row."""
    name = name or row
    if not isinstance(value, Integral) or type(value) is bool:
        message = f"{name}: {value!r} is not an integer"
    elif value < COUNT_FLOORS[row]:
        message = f"{name} must be >= {COUNT_FLOORS[row]}, got {int(value)}"
    else:
        return int(value)
    error = InvalidThinning if row == "thin_interval" else InvalidParameter
    raise error(message)


# graph model
class InvalidNode(CategraphError, ValueError):
    """A node id is outside the graph's 0..N-1 range."""


class UnknownCategory(CategraphError):
    """A category id is not part of the partition."""


class EmptyGraph(CategraphError):
    """Operation needs at least one node."""


# generators
class InfeasibleRegularGraph(CategraphError):
    """No simple k-regular graph exists for the requested size/degree."""


class GenerationFailed(CategraphError):
    """Random regular graph generation hit the retry limit."""


class TooManyEdgesRequested(CategraphError):
    """More inter-category edges requested than free node pairs."""


# samplers
class InvalidWeight(CategraphError, ValueError):
    """Sampling or category weights must pass ``weights_ok``."""


def finite(x) -> bool:
    """Whether ``x`` is a real number (not a bool) in the float range, found
    by comparing, as ``float()`` of an int beyond the range overflows."""
    return (isinstance(x, Real) and not isinstance(x, bool)
            and -sys.float_info.max <= x <= sys.float_info.max)


def weights_ok(weights):
    """Which draw weights (numbers or arrays) the samplers, writers and
    readers take: finite, above 2**-1024, so that the inverse is finite."""
    return (weights > 2.0 ** -1024) & (weights <= sys.float_info.max)


def check_weights(weights) -> None:
    """Refuse the first of an array of draw weights that ``weights_ok``
    refuses, as InvalidWeight naming its draw."""
    weights = np.asarray(weights)
    bad = np.flatnonzero(~weights_ok(weights))
    if len(bad):
        raise InvalidWeight(f"draw {bad[0]}: weight must be positive and finite, "
                            f"with a finite inverse, got {weights[bad[0]].item()!r}")


class IsolatedStartNode(CategraphError):
    """Walks cannot start from a degree-zero node."""


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
