"""Structured check reports shared by the verification modules and the CLI."""

from __future__ import annotations

from typing import Any

from .records import Record


class CheckRecord(Record):
    __slots__ = ("name", "params", "expected", "actual", "passed", "skipped", "info")

    def __init__(self, name: str, params: dict[str, Any], expected: str, actual: str,
                 passed: bool, skipped: bool = False, info: bool = False) -> None:
        self.name = name
        self.params = params
        self.expected = expected
        self.actual = actual
        self.passed = passed
        self.skipped = skipped
        self.info = info  # reported outside the proven range, never asserted

    @property
    def status(self) -> str:
        if self.skipped:
            return "skip"
        if self.info:
            return "info"
        return "pass" if self.passed else "FAIL"

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
    ) -> CheckRecord:
        if passed is None:
            passed = expected == actual
        rec = CheckRecord(name, params, str(expected), str(actual), passed)
        self.checks.append(rec)
        return rec

    def skip(self, name: str, params: dict[str, Any], reason: str) -> CheckRecord:
        rec = CheckRecord(name, params, "", reason, True, skipped=True)
        self.checks.append(rec)
        return rec

    def merge(self, *reports: Report) -> Report:
        """Append the checks of each report in turn; returns self."""
        for other in reports:
            self.checks.extend(other.checks)
        return self

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
            "skipped": statuses.count("skip"),
            "info": statuses.count("info"),
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "title": self.title,
            "ok": self.ok,
            "summary": self.summary(),
            "checks": [c.to_dict() for c in self.checks],
        }
