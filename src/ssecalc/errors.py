"""Exception hierarchy shared by all modules."""


class SseError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(SseError):
    """Matrix shapes are not conformable for the requested operation."""


class InvalidMatrixError(SseError):
    """Matrix data violates an invariant (negative entry, bad shape, ...)."""


class InvalidIndexSetError(SseError):
    """Index set is out of range, unsorted, or empty where forbidden."""


class ShiftMismatchError(SseError):
    """Domain/codomain shifts of codes do not line up."""


class InvalidCodeError(SseError):
    """Block code data violates an invariant (partial table, bad image, ...)."""


class NotElementaryError(SseError):
    """A code was required to be elementary (window {0,1} / inverse {-1,0})."""


class InvalidEdgeError(SseError):
    """Matrix pair does not define a valid (elementary) strong shift equivalence."""


class MissingInverseError(SseError):
    """Operation requires a code with a stored, verified inverse."""


class VerificationError(SseError):
    """An identity that is mathematically guaranteed failed; indicates a bug."""


class ResourceBoundError(SseError):
    """A configurable enumeration cap was exceeded; results were not truncated."""


class IterationBoundError(SseError):
    """An iterative normalization exceeded its termination bound."""


class GStarOverflowError(SseError):
    """A group-ring product has a coefficient >= 2 and left the {0,1} subset."""


class EmptyCoreError(SseError):
    """A matrix core (indices on bi-infinite paths) is empty where one is required."""


# -- random suites ----------------------------------------------------


# The most trials of a random suite (freudenthal-check, refine-axioms):
# a larger count is refused before any work, not run until it is killed.
# A freudenthal-check trial at dimension 10 takes about 6 ms on a 2-core
# Xeon, so the cap keeps that run to seconds.
MAX_TRIALS = 1000


def check_trials(trials) -> None:
    """Refuse a trial count that is not an int >= 0 (ValueError) or that
    exceeds MAX_TRIALS (ResourceBoundError)."""
    if type(trials) is not int or trials < 0:
        raise ValueError(f"trials must be an integer >= 0, not {trials!r}")
    if trials > MAX_TRIALS:
        raise ResourceBoundError(f"trials {trials} exceeds MAX_TRIALS = {MAX_TRIALS}")


# -- JSON input -------------------------------------------------------


def json_fields(obj, error: type[SseError], what: str, keys: tuple[str, ...]) -> list:
    """The values of keys in the JSON object obj, in order.  A value that
    is not an object, or an object without one of keys, is refused with
    error; what names the object with its article ("a path step")."""
    if not isinstance(obj, dict):
        *head, last = (f'"{key}"' for key in keys)
        listed = f"{', '.join(head)} and {last}" if head else last
        raise error(f"{what} must be a JSON object with {listed}")
    try:
        return [obj[key] for key in keys]
    except KeyError as exc:
        raise error(f"malformed {what.split(' ', 1)[1]} object: {exc}") from exc


def json_list(value, error: type[SseError], what: str) -> list:
    """value, refused with error unless it is a JSON list: a string or an
    object iterates too, as its characters or its keys."""
    if not isinstance(value, list):
        raise error(f"{what} must be a JSON list, not {value!r}")
    return value
