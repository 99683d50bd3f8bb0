"""Every name a module lists in ``__all__`` must import, and the package's list is pinned."""

import importlib
import pkgutil

import decomp_embed


def test_every_exported_name_imports():
    names = ["decomp_embed"] + [
        f"decomp_embed.{info.name}" for info in pkgutil.iter_modules(decomp_embed.__path__)
    ]
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_the_public_surface_is_pinned():
    """Adding or dropping a public name is an edit of this list."""
    assert sorted(decomp_embed.__all__) == [
        "Atom", "CoordFactor", "Covering", "Evidence", "ExpPolyWeight", "ExtExponent",
        "FAMILY_NAMES", "INF", "LineSector", "Membership", "Outcome", "PairSector",
        "ProductSector", "RadialSector", "TailClassification", "Verdict", "adjacency",
        "certify_constants", "check_moderate", "compound", "conjugate", "covering_from_json",
        "decide", "decide_lp_membership", "decide_sobolev", "get_family", "lower_conjugate",
        "neighbors", "norm_surrogate_check", "spectral_norm", "truncated_oracle",
    ]
