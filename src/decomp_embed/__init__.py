"""Decision engine for decomposition-space smoothness embeddings.

The package answers whether a decomposition space, described by a
structured covering, an integrability pair and a weighted sequence space,
embeds into a Sobolev, bounded-continuous or bounded-variation target.
Every verdict ships with machine-checkable evidence, and an independent
numeric oracle can replay each summability claim on truncated windows.
The covering and oracle names load their modules on first use (PEP 562),
so that an exact decision imports neither.
"""

from importlib import import_module

from .embedding import Evidence, Outcome, Verdict, decide, decide_sobolev
from .exponents import INF, ExtExponent, compound, conjugate, lower_conjugate
from .families import FAMILY_NAMES, covering_from_json, get_family
from .seqspace import (
    Atom,
    CoordFactor,
    ExpPolyWeight,
    LineSector,
    Membership,
    PairSector,
    ProductSector,
    RadialSector,
    decide_lp_membership,
    decide_sequence_embedding,
)

_LAZY = {
    **dict.fromkeys(("TailClassification", "truncated_oracle"), "oracle"),
    **dict.fromkeys(("Covering", "adjacency", "certify_constants", "check_moderate",
                     "neighbors", "norm_surrogate_check", "spectral_norm"), "covering"),
}

__all__ = [
    "INF",
    "ExtExponent",
    "compound",
    "conjugate",
    "lower_conjugate",
    "Atom",
    "CoordFactor",
    "ExpPolyWeight",
    "LineSector",
    "Membership",
    "PairSector",
    "ProductSector",
    "RadialSector",
    "TailClassification",
    "decide_lp_membership",
    "decide_sequence_embedding",
    "truncated_oracle",
    "Covering",
    "adjacency",
    "certify_constants",
    "check_moderate",
    "neighbors",
    "norm_surrogate_check",
    "spectral_norm",
    "Evidence",
    "Outcome",
    "Verdict",
    "decide",
    "decide_sobolev",
    "FAMILY_NAMES",
    "covering_from_json",
    "get_family",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value
