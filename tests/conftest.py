import pytest

from decomp_embed import memos


@pytest.fixture
def cleared_memos():
    """Every memo of the package empty before and after the test: a patched
    helper then runs, and no result it shaped outlives the test."""
    memos.clear()
    yield
    memos.clear()
