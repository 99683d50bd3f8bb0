import pytest


@pytest.fixture
def fresh_oracle_memo():
    """An empty oracle memo before and after the test: a patched oracle
    helper then runs, and no result it shaped outlives the test."""
    from decomp_embed import oracle

    oracle._classified.cache_clear()
    yield
    oracle._classified.cache_clear()
