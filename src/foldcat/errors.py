"""Shared exception types and the one size guard."""


class SizeGuardError(ValueError):
    """Requested size/order exceeds the supported guard."""


def check_range(what: str, value: int, lo: int, hi: int) -> None:
    """The one size guard: raise SizeGuardError unless lo <= value <= hi."""
    if not lo <= value <= hi:
        raise SizeGuardError(f"{what} must be in [{lo}, {hi}], got {value}")


class NonUnitError(ValueError):
    """Series inversion attempted on a series with zero constant term."""


class SingularMinorError(ValueError):
    """A leading principal minor of a Hankel matrix vanished."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"singular leading principal minor of order {k + 1}")


class InvariantError(ValueError):
    """An identity checked inside a computation failed at one position."""

    def __init__(self, what: str, where, expected, got):
        self.what = what
        self.where = where
        self.expected = expected
        self.got = got
        super().__init__(f"{what} at {where}: expected {expected}, got {got}")


class NoConvergenceError(RuntimeError):
    """Continued fraction failed to stabilize within the step budget."""
