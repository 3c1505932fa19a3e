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


@dataclass
class Report:
    checks: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

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
