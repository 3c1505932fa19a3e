"""Verification reports: named checks with residuals, tolerances and
worst-element locators."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    residual: float
    tol: float
    passed: bool
    worst: dict | None = None
    note: str = ""

    @classmethod
    def from_residual(cls, name, residual, tol, worst=None):
        return cls(name=name, residual=float(residual), tol=float(tol),
                   passed=bool(residual <= tol), worst=worst)

    @classmethod
    def from_margin(cls, name, margin, floor):
        """A margin check passes when the value stays ABOVE the floor."""
        return cls(name=name, residual=float(margin), tol=float(floor),
                   passed=bool(margin >= floor), note="margin (must stay above tolerance)")


@dataclass
class Report:
    checks: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    def add(self, check: Check):
        self.checks.append(check)

    def skip(self, name: str, reason: str):
        self.skipped.append((name, reason))

    @property
    def passed(self) -> bool:
        """All checks passed, and at least one ran: nothing checked is no pass."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = ["check                                    residual      tol          status"]
        lines.append("-" * 78)
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            where = ""
            if c.worst and not c.passed:
                where = f"  worst={c.worst}"
            note = f"  [{c.note}]" if c.note else ""
            lines.append(f"{c.name:<40} {c.residual:<13.3e} {c.tol:<12.1e} {status}{note}{where}")
        for name, reason in self.skipped:
            lines.append(f"{name:<40} {'-':<13} {'-':<12} SKIP  [{reason}]")
        lines.append("-" * 78)
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'} "
                     f"({len(self.checks)} checks, {len(self.skipped)} skipped)")
        return "\n".join(lines)
