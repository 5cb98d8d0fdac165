"""Output checks for benchmark cases.

Every seed: a case that raises counts as failed, an applicable bound report
with ``holds == False`` counts as a violation, and inapplicable bounds are
tallied by exception class.  At the default seed each (case, theorem)
verdict must also equal the stored reference exactly, and each ``lhs`` /
``rhs`` must lie within the reference's recorded tolerance.

Regenerate the stored references (only after a deliberate change of
outputs) with::

    python3 perfbench/check.py
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-6
ABS_TOL = 1e-13


def outcome(case) -> dict[str, list]:
    """theorem_id -> [holds, lhs, rhs], or [None, exception class] if inapplicable."""
    out: dict[str, list] = {}
    for rep in case.reports:
        if rep.theorem_id in out:
            raise ValueError(f"duplicate report for {rep.theorem_id}")
        out[rep.theorem_id] = [bool(rep.holds), float(rep.lhs), float(rep.rhs)]
    for tid, reason in case.inapplicable:
        out.setdefault(tid, [None, reason.split(":", 1)[0]])
    return out


def _close(a: float, b: float, rel: float, abs_: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


@dataclass
class Tally:
    """Running correctness counts over every case a run executes."""

    reference: dict | None = None
    attempted: int = 0
    failed: int = 0
    reports: int = 0
    inapplicable: int = 0
    violations: int = 0
    mismatches: int = 0
    drift: int = 0
    inapplicable_by_class: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def add_failure(self, case_id: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{case_id}: raised {type(exc).__name__}: {exc}")

    def add(self, case_id: str, case) -> None:
        self.attempted += 1
        got = outcome(case)
        for tid, row in got.items():
            if row[0] is None:
                self.inapplicable += 1
                self.inapplicable_by_class[row[1]] += 1
            else:
                self.reports += 1
                if not row[0]:
                    self.violations += 1
                    self.problems.append(f"{case_id}/{tid}: bound violated {row[1:]}")
        if self.reference is not None:
            self._compare(case_id, got)

    def _compare(self, case_id: str, got: dict[str, list]) -> None:
        want = self.reference["cases"].get(case_id)
        if want is None:
            self.mismatches += 1
            self.problems.append(f"{case_id}: not in the reference")
            return
        rel, abs_ = self.reference["rel_tol"], self.reference["abs_tol"]
        for tid in sorted(set(want) | set(got)):
            w, g = want.get(tid), got.get(tid)
            if w is None or g is None or w[0] != g[0] or (w[0] is None and w[1] != g[1]):
                self.mismatches += 1
                self.problems.append(f"{case_id}/{tid}: verdict {g} != reference {w}")
                continue
            if w[0] is None:
                continue
            for label, a, b in (("lhs", g[1], w[1]), ("rhs", g[2], w[2])):
                if not _close(a, b, rel, abs_):
                    self.drift += 1
                    self.problems.append(f"{case_id}/{tid}: {label} {a!r} != reference {b!r}")

    def absorb(self, other: "Tally") -> None:
        """Add another tally's counts to this one."""
        for name in ("attempted", "failed", "reports", "inapplicable", "violations",
                     "mismatches", "drift"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.inapplicable_by_class.update(other.inapplicable_by_class)
        self.problems.extend(other.problems)

    @property
    def correct(self) -> bool:
        return not (self.failed or self.violations or self.mismatches or self.drift)

    def summary(self) -> dict:
        judged = self.reports + self.inapplicable
        return {
            "failed_frac": self.failed / max(self.attempted, 1),
            "inapplicable_frac": self.inapplicable / judged if judged else 0.0,
            "bound_violations": self.violations,
            "verdict_mismatches": self.mismatches if self.reference is not None else None,
            "value_drift": self.drift if self.reference is not None else None,
            "inapplicable_by_class": dict(sorted(self.inapplicable_by_class.items())),
        }


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def make_reference(workload: str) -> dict:
    """Run every default-seed case of a workload once and record its outcome."""
    from nepritz import Subspace, analyze_case
    from workloads import DEFAULT_SEED, build

    cases = {}
    for c in build(workload, DEFAULT_SEED):
        cases[c.case_id] = outcome(analyze_case(c.t, c.ref, Subspace.from_basis(c.basis)))
    return {"workload": workload, "seed": DEFAULT_SEED, "rel_tol": REL_TOL,
            "abs_tol": ABS_TOL, "cases": cases}


if __name__ == "__main__":
    import bootstrap

    bootstrap.prepare()
    from workloads import WORKLOADS

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        doc = make_reference(name)
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {name}: {len(doc['cases'])} cases")
