"""Decision engine for decomposition-space smoothness embeddings.

The package answers whether a decomposition space, described by a
structured covering, an integrability pair and a weighted sequence space,
embeds into a Sobolev, bounded-continuous or bounded-variation target.
Every verdict ships with machine-checkable evidence, and an independent
numeric oracle can replay each summability claim on truncated windows.
"""

from .covering import (
    Covering,
    adjacency,
    certify_constants,
    check_moderate,
    neighbors,
    norm_surrogate_check,
    spectral_norm,
)
from .embedding import (
    Evidence,
    Outcome,
    Verdict,
    decide,
    decide_bv,
    decide_cb,
    decide_sobolev,
)
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
    TailClassification,
    decide_lp_membership,
    decide_sequence_embedding,
    truncated_oracle,
)
from .weights import build_weight

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
    "decide_bv",
    "decide_cb",
    "decide_sobolev",
    "FAMILY_NAMES",
    "covering_from_json",
    "get_family",
    "build_weight",
]

__version__ = "0.1.0"
