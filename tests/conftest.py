import pytest

from memos import clear_memos


@pytest.fixture
def cold_memos():
    """Empty every hmvol memo, as in a fresh process; calling the returned
    function empties them again."""
    clear_memos()
    return clear_memos
