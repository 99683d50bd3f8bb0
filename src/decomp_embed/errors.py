"""Exception taxonomy shared across the package, and the window-size cap."""

from __future__ import annotations

import math
import os

__all__ = [
    "DecompEmbedError",
    "UnsupportedWeight",
    "UnsupportedGeometry",
    "InvalidParams",
    "SchemaError",
    "InexactExponent",
    "WindowCapExceeded",
    "MissingTightnessWitness",
    "InconsistentVerdict",
    "OracleDisagreement",
]

WINDOW_CAP_ENV = "DECOMP_EMBED_MAX_WINDOW"
_DEFAULT_WINDOW_CAP = 10**6


class DecompEmbedError(Exception):
    """Base class for every error this package raises deliberately."""


class UnsupportedWeight(DecompEmbedError):
    """Raised when a weight/sector combination has no closed-form rule.

    The symbolic decider never guesses; anything outside the implemented
    atom class ends up here.
    """


class UnsupportedGeometry(DecompEmbedError):
    """Base sets that cannot be intersected, not even conservatively."""


class InvalidParams(DecompEmbedError, ValueError):
    """Family parameters outside the supported domain."""


class SchemaError(DecompEmbedError, ValueError):
    """Malformed query documents: unknown fields, wrong types."""


class InexactExponent(DecompEmbedError, ValueError):
    """A float or decimal literal has no exact rational value under the denominator cap."""


class WindowCapExceeded(DecompEmbedError, RuntimeError):
    """An index window would exceed the configured size cap."""


def window_cap() -> int:
    """The largest window a covering or the oracle's grid may enumerate."""
    raw = os.environ.get(WINDOW_CAP_ENV)
    if raw is None:
        return _DEFAULT_WINDOW_CAP
    try:
        return int(raw)
    except ValueError:
        raise InvalidParams(f"{WINDOW_CAP_ENV} must be an integer, got {raw!r}") from None


def check_window_cap(count: int, what: str = "window of {} indices") -> None:
    """Raise WindowCapExceeded before ``count`` items are built, by default
    the indices of a window; ``what`` names them around the count."""
    cap = window_cap()
    if count > cap:
        # str() of a huge int is slow, and refused past 4300 digits
        size = count if count.bit_length() <= 64 else f"about 2^{count.bit_length() - 1}"
        raise _exceeded(what.format(size), cap)


def window_power(base: int, exp: int) -> int:
    """base ** exp, the size of a window that grows as a power of the
    dimension ``exp``.  Its bit length is read from those of the operands
    first: a power past both 2^64 and the cap is refused as
    :func:`check_window_cap` would name it, about 2^k, before it is built."""
    cap = window_cap()
    if exp * (base.bit_length() - 1) > max(64, cap.bit_length()):
        raise _exceeded(f"window of about 2^{math.floor(exp * math.log2(base))} indices", cap)
    return base ** exp


def _exceeded(what: str, cap: int) -> WindowCapExceeded:
    return WindowCapExceeded(f"{what} exceeds the cap of {cap} (override via {WINDOW_CAP_ENV})")


class MissingTightnessWitness(DecompEmbedError):
    """The operation needs a tightness witness the covering does not carry."""


class InconsistentVerdict(DecompEmbedError, RuntimeError):
    """A sufficient criterion holds while a necessary one fails: an internal bug."""


class OracleDisagreement(DecompEmbedError):
    """The numeric oracle contradicted a symbolic summability decision."""
