"""Verification reports: every exact check as (claimed, computed, verdict).

A Check records the bound being tested in plain text alongside the exact
rational values involved, so a report can be audited without re-running
the computation.  Verdicts never round: a check passes only when the
stated comparison holds in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import VerificationError
from .exactlin import rat_str


def _render(value) -> str:
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@dataclass(frozen=True)
class Check:
    bound: str
    claimed: str
    computed: str
    ok: bool

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "claimed": self.claimed,
            "computed": self.computed,
            "verdict": "pass" if self.ok else "fail",
        }


def check_eq(bound: str, computed, expected) -> Check:
    return Check(bound, _render(expected), _render(computed), computed == expected)


def check_le(bound: str, computed, limit) -> Check:
    return Check(bound, f"<= {_render(limit)}", _render(computed), computed <= limit)


def check_lt(bound: str, computed, limit) -> Check:
    return Check(bound, f"< {_render(limit)}", _render(computed), computed < limit)


def check_true(bound: str, ok: bool, computed: str = "") -> Check:
    return Check(bound, "true", computed or _render(ok), bool(ok))


def certify(*checks: Check) -> tuple[Check, ...]:
    """The checks, once every one passes; the first failure raises.

    This is how a construction certifies the facts it reports: it builds
    the Check records from values it computed anyway and returns them with
    its result, so a report renders them instead of re-testing.
    """
    for c in checks:
        if not c.ok:
            raise VerificationError(
                f"{c.bound}: claimed {c.claimed}, computed {c.computed}"
            )
    return checks


def all_pass(checks) -> bool:
    return all(c.ok for c in checks)


def report_doc(checks, **extra) -> dict:
    """The canonical report document: results plus the check list."""
    doc = dict(extra)
    doc["checks"] = [c.to_json() for c in checks]
    doc["verdict"] = "pass" if all_pass(checks) else "fail"
    return doc
