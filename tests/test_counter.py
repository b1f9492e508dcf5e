"""A budget message takes its unit and flag from the counter that ran out."""

import pytest

from sqadd.engine import BudgetExhausted, _Counter


@pytest.mark.parametrize("what", ["generation", "propagation", "branches"])
def test_counter_words_its_own_stop(what):
    counter = _Counter(16, unit="representations", flag="--max-representations")
    counter.tick(what, 16)
    with pytest.raises(BudgetExhausted) as err:
        counter.tick(what)
    assert str(err.value) == (
        f"budget exhausted: {what} after 17 representations, "
        "over the limit of 16 set by --max-representations"
    )
    assert (err.value.what, err.value.spent) == (what, 17)

