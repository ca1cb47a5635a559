"""Verification reports shared by all identity-checking modules."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Failure:
    i: int
    j: int
    expected: object
    got: object

    def as_dict(self) -> dict:
        return {"i": self.i, "j": self.j,
                "expected": str(self.expected), "got": str(self.got)}


def _plain(value):
    return int(value) if isinstance(value, np.generic) else value


@dataclass
class VerifyReport:
    suite: str
    size: int
    failures: list[Failure] = field(default_factory=list)
    conjecture: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, i: int, j: int, expected, got) -> None:
        self.failures.append(Failure(i, j, expected, got))

    def compare(self, got: np.ndarray, expected: np.ndarray,
                row: int = 0) -> None:
        """Add a failure for every entry where got differs from expected.

        got and expected may be a block of rows of a larger matrix, the
        first being row `row` of it.  Failures come in row-major order.
        NumPy integer scalars are reported as python ints; the python ints
        and Fractions of object arrays are reported as they are.
        """
        differ = got != expected
        if not differ.any():  # a matching block costs one scan, no argwhere
            return
        for i, j in np.argwhere(differ):
            self.add(int(i) + row, int(j), _plain(expected[i, j]),
                     _plain(got[i, j]))

    def merge(self, other: "VerifyReport") -> None:
        self.failures.extend(other.failures)

    def as_dict(self) -> dict:
        d = {"suite": self.suite, "size": self.size, "pass": self.ok,
             "failures": [f.as_dict() for f in self.failures]}
        if self.conjecture:
            d["conjecture"] = True
        return d
