"""Structured check reports shared by the verification modules and the CLI."""

from __future__ import annotations

from typing import Any

from .records import Record


class CheckRecord(Record):
    """One check outcome: status is "pass", "FAIL" or "info" (reported, never asserted)."""

    __slots__ = ("name", "params", "expected", "actual", "status")

    def __init__(self, name: str, params: dict[str, Any], expected: str, actual: str,
                 status: str) -> None:
        self.name = name
        self.params = params
        self.expected = expected
        self.actual = actual
        self.status = status

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "params": self.params,
            "expected": self.expected,
            "actual": self.actual,
            "status": self.status,
        }


class Report(Record):
    __slots__ = ("title", "checks")

    def __init__(self, title: str) -> None:
        self.title = title
        self.checks: list[CheckRecord] = []

    def record(
        self,
        name: str,
        params: dict[str, Any],
        expected: Any,
        actual: Any,
        passed: bool | None = None,
        info: bool = False,
    ) -> None:
        """Record one check; an info check is reported, never asserted."""
        if passed is None:
            passed = expected == actual
        status = "info" if info else "pass" if passed else "FAIL"
        self.checks.append(CheckRecord(name, params, str(expected), str(actual), status))

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if c.status == "FAIL"]

    def summary(self) -> dict[str, int]:
        statuses = [c.status for c in self.checks]
        return {
            "total": len(statuses),
            "passed": statuses.count("pass"),
            "failed": statuses.count("FAIL"),
            "info": statuses.count("info"),
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "title": self.title,
            "ok": self.ok,
            "summary": self.summary(),
            "checks": [c.to_dict() for c in self.checks],
        }
