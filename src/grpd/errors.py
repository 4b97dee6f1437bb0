"""Exception hierarchy shared by all grpd modules, and the one
implementation of each input rule that raises it: a finite real number,
an integer, a finite vector, a finite grid array and a mapping of known
keys."""

import math
import numbers

import numpy as np


class GrpdError(Exception):
    """Base class for all library errors."""


class DomainError(GrpdError):
    """Coordinates are invalid for the model (off-grid, a <= 0, bad shape)."""


class ModelMismatchError(GrpdError):
    """Two objects that must live on the same model do not."""


class ComposabilityError(GrpdError):
    """A pair fed to a partial multiplication is not composable."""


class ConeConditionError(GrpdError):
    """The wave-front gate W1 x W2 meets ker m_Gamma; gated product refused."""


class OrderCapError(GrpdError):
    """Requested fiber-derivative order exceeds the supported cap."""


class ModelUnsupportedError(GrpdError):
    """The operation is not defined for this model kind."""


class SerializationError(GrpdError):
    """Malformed on-disk data (bad magic, truncated payload, a bad scenario)."""


# ---------------------------------------------------------------------------
# Input rules
# ---------------------------------------------------------------------------

def is_real(value) -> bool:
    """True for a finite real number that a float holds; a bool is not one."""
    # float and int first: the abstract class test is ten times slower
    if isinstance(value, bool) or not (isinstance(value, (float, int))
                                       or isinstance(value, numbers.Real)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an int too large for a float
        return False


def real(value, what: str) -> float:
    """``value`` as a float; a DomainError unless ``is_real``."""
    if not is_real(value):
        raise DomainError(f"{what} must be a finite real number, got {value!r}")
    return float(value)


def integer(value, what: str, error: type = DomainError) -> int:
    """``value`` as an int; an ``error`` unless it is an integer (a bool
    is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


def finite_vector(value, dim: int, what: str) -> tuple[float, ...]:
    """``value`` as a tuple of floats; a DomainError unless it is a
    sequence of ``dim`` finite real numbers."""
    try:
        parts = None if isinstance(value, str) else list(value)
    except TypeError:
        parts = None
    if parts is None or len(parts) != dim or not all(map(is_real, parts)):
        raise DomainError(f"{what} must be {dim} finite real numbers, got {value!r}")
    return tuple(map(float, parts))


def only_keys(mapping: dict, names, what: str, error: type = DomainError) -> dict:
    """``mapping``; an ``error`` unless it is a dict of keys in ``names``."""
    if not isinstance(mapping, dict):
        raise error(f"{what} must be a JSON object, got {mapping!r}")
    unknown = [k for k in mapping if k not in names]
    if unknown:
        raise error(f"{what} accepts the keys {list(names)}, not {unknown}")
    return mapping


def finite_grid(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``values`` as a complex array; a DomainError unless it has
    ``shape`` and only finite entries."""
    try:
        v = np.asarray(values, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must be complex numbers") from exc
    if v.shape != shape or not np.isfinite(v).all():
        raise DomainError(f"{what} must be finite, of shape {shape}; got shape {v.shape}")
    return v
