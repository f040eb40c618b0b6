"""One work budget per decision.

The places where work grows faster than the input charge it with `spend`,
each under a quantity named in the report; all charges count against one
total.  Inside a `limit(n)` block a total above n raises `BudgetExceeded`;
outside any block spending is free.  The open block is per context, so
threads do not share one.
"""

import contextlib
import contextvars


class BudgetExceeded(Exception):
    def __init__(self, quantity, spent, limit):
        super().__init__(f"quantity={quantity}  spent={spent}  limit={limit}")
        self.quantity, self.spent, self.limit = quantity, spent, limit


_tally = contextvars.ContextVar("tally", default=None)  # [spent, limit] of the open block


@contextlib.contextmanager
def limit(n):
    token = _tally.set([0, n])
    try:
        yield
    finally:
        _tally.reset(token)


def spend(quantity, amount):
    tally = _tally.get()
    if tally is not None:
        tally[0] += amount
        if tally[0] > tally[1]:
            raise BudgetExceeded(quantity, tally[0], tally[1])


def spent():
    """The total charged in the open block so far; 0 outside any block."""
    tally = _tally.get()
    return tally[0] if tally is not None else 0
