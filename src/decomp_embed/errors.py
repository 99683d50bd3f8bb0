"""Exception taxonomy shared across the package."""

from __future__ import annotations

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


class MissingTightnessWitness(DecompEmbedError):
    """The operation needs a tightness witness the covering does not carry."""


class InconsistentVerdict(DecompEmbedError, RuntimeError):
    """A sufficient criterion holds while a necessary one fails: an internal bug."""


class OracleDisagreement(DecompEmbedError):
    """The numeric oracle contradicted a symbolic summability decision."""
