"""Every name a module lists in ``__all__`` must import."""

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
