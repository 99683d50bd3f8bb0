"""Every memo the package keeps across calls, declared once.

:data:`MEMOS` names each module-level ``functools.lru_cache`` or
``functools.cache`` by (module, attribute), and :func:`clear` empties
them.  Memos inside the entries of a declared one go with them: a
form-cache entry (``embedding._compiled_memo``) with a Khintchine-restricted
form carries an LRU of its N3 and N4 verdicts; a covering of
``families.family_covering`` keeps what it computes (``covering._keep``);
and the coverings of ``inhom_besov``, ``alpha_modulation`` and ``diagonal``
build their base set once, under a ``functools.cache``.  A weight keeps
its hash and membership test.  No module of the package imports this one,
and :func:`clear` reads only modules already loaded: it never loads the
oracle, covering geometry or numpy.
"""

import sys

__all__ = ["MEMOS", "clear"]

MEMOS = (
    ("exponents", "_parse_literal"),
    ("embedding", "_compiled_memo"),
    ("embedding", "_of_q_and_r"),
    ("embedding", "_evidence"),
    ("oracle", "_classified"),
    ("families", "family_covering"),
    ("cli", "_build_parser"),
)


def clear() -> None:
    """Empty every declared memo of the modules already loaded."""
    for module, attr in MEMOS:
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None:
            getattr(loaded, attr).cache_clear()
