import pytest

from hmvol import quadfield, special_values

_MEMOS = (special_values._em_constants, special_values._power_sum, special_values._l_closed_form,
          special_values._pin_l_exact, quadfield.character)


@pytest.fixture
def cold_memos():
    """Empty every special-value memo, as in a fresh process; calling the
    returned function empties them again."""
    def clear():
        for memo in _MEMOS:
            memo.cache_clear()
    clear()
    return clear
