"""Golden snapshot of the built-in suite.

Every (instance, theorem) outcome of ``builtin_suite()`` is compared with the
stored reference ``perfbench/reference/suite.json``: verdicts exactly, and
``lhs``/``rhs`` within the tolerances recorded in that file.  A refactor or
speedup that changes any verdict or moves any value beyond the tolerance
fails here.
"""

import json
import math
from pathlib import Path

import pytest

from nepritz.experiments import analyze_case, builtin_suite
from nepritz.projection import Subspace

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "suite.json")
    .read_text()
)


def outcome(case) -> dict[str, list]:
    """theorem_id -> [holds, lhs, rhs], or [None, exception class] if inapplicable."""
    out = {r.theorem_id: [r.holds, r.lhs, r.rhs] for r in case.reports}
    for tid, reason in case.inapplicable:
        out.setdefault(tid, [None, reason.split(":", 1)[0]])
    return out


@pytest.fixture(scope="module")
def suite():
    return {inst.instance_id: inst for inst in builtin_suite()}


def test_reference_covers_the_suite(suite):
    assert set(REFERENCE["cases"]) == set(suite)


@pytest.mark.parametrize("instance_id", sorted(REFERENCE["cases"]))
def test_outcomes_match_reference(suite, instance_id):
    inst = suite[instance_id]
    case = analyze_case(inst.t, inst.ref, Subspace.from_basis(inst.subspace.basis))
    got = outcome(case)
    want = REFERENCE["cases"][instance_id]
    assert set(got) == set(want)
    for tid, row in want.items():
        assert got[tid][0] == row[0], tid
        if row[0] is None:
            assert got[tid][1] == row[1], tid
            continue
        for mine, theirs in zip(got[tid][1:], row[1:]):
            assert math.isclose(mine, theirs, rel_tol=REFERENCE["rel_tol"],
                                abs_tol=REFERENCE["abs_tol"]), (tid, mine, theirs)
