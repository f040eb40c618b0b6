import pytest

from semigalois import budget


def test_limit_blocks_nest_and_spending_outside_is_free():
    budget.spend("elements", 10 ** 9)
    with budget.limit(10):
        budget.spend("elements", 4)
        with budget.limit(3), pytest.raises(budget.BudgetExceeded) as exc:
            budget.spend("ring_products", 2)
            budget.spend("ring_products", 2)
        assert (exc.value.quantity, exc.value.spent, exc.value.limit) == ("ring_products", 4, 3)
        budget.spend("elements", 6)
        with pytest.raises(budget.BudgetExceeded):
            budget.spend("elements", 1)
    budget.spend("elements", 10 ** 9)
