"""Tiny result type shared by all exact-identity checkers."""

from __future__ import annotations

from typing import Any, NamedTuple


class CheckResult(NamedTuple):
    """One verified identity: a name and both exactly-computed sides."""

    name: str
    lhs: Any
    rhs: Any

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.ok else "fail",
            "lhs": self.lhs,
            "rhs": self.rhs,
        }
