"""Exception types shared across the package."""


class LatticeError(Exception):
    """Base class for errors raised by this package."""


class IllConditionedBasisError(LatticeError, ValueError):
    """Basis too close to singular for a reliable dual / solve (bad input)."""

    def __init__(self, cond, threshold):
        self.cond = float(cond)
        self.threshold = float(threshold)
        super().__init__(
            f"basis condition number {self.cond:.3e} exceeds {self.threshold:.1e}"
        )


class BudgetExceededError(LatticeError):
    """An enumeration or covering search ran past its node/centre budget.

    Raised only when the whole search would exceed the budget.  visited is
    the count charged when the search stopped; the enumeration charges a
    block of nodes at a time, so it may pass the budget by up to one block.
    """

    def __init__(self, budget, visited):
        self.budget = int(budget)
        self.visited = int(visited)
        super().__init__(
            f"budget {self.budget} exceeded after {self.visited} nodes")


class MissingTableError(LatticeError):
    """A numeric transform table is required but was not supplied."""


class ToleranceUnreachedError(LatticeError):
    """Quadrature could not certify the requested absolute error."""

    def __init__(self, requested, achieved, where=""):
        self.requested = float(requested)
        self.achieved = float(achieved)
        suffix = f" at {where}" if where else ""
        super().__init__(
            f"requested abs error {requested:.2e}, achieved {achieved:.2e}{suffix}"
        )


class InvariantError(LatticeError):
    """A computed result failed a consistency check it is certified by.

    Raised in place of ``assert``, so the check also runs under ``python -O``.
    """
