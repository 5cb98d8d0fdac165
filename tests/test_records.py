"""Records that hold arrays compare by identity.

A dataclass's generated __eq__ compares the field tuples, and on an array
field numpy's elementwise == has no single truth value, so == between two
equal records raised ValueError and hash() raised TypeError.  Each record
here is declared with eq=False: == is identity and hash is id-based.
"""

import dataclasses

import numpy as np
import pytest

import nepritz.bounds_lab as bl
import nepritz.experiments as ex
from nepritz.dense_kernels import svd
from nepritz.nep_model import MatrixFunction, Polynomial, Rational, ReferencePair
from nepritz.projection import Subspace


@pytest.fixture(scope="module")
def records():
    inst = ex.builtin_suite()[0]
    t, ref, s = inst.t, inst.ref, inst.subspace
    case = ex.analyze_case(t, ref, s)
    ctx = bl.build_case_context(t, s, ref.x_star, ref.lambda_star, case.mu)
    return {
        "Subspace": Subspace(np.eye(3, 2)),
        "MatrixFunction": MatrixFunction.from_terms([(Polynomial([1, 2]), np.eye(2))]),
        "ReferencePair": ReferencePair(0.0, [1.0, 0.0]),
        "TargetValues": ctx.target,
        "Polynomial": Polynomial([1, 2]),
        "Rational": Rational([1.0], [-2.0, 1.0]),
        "CaseContext": ctx,
        "RitzExtraction": case.ritz,
        "RefinedExtraction": case.refined,
        "SvdResult": svd(np.eye(2)),
        "SuiteInstance": inst,
        "CaseResult": case,
    }


@pytest.mark.parametrize("name", [
    "Subspace", "MatrixFunction", "ReferencePair", "TargetValues", "Polynomial", "Rational",
    "CaseContext", "RitzExtraction", "RefinedExtraction", "SvdResult", "SuiteInstance",
    "CaseResult",
])
def test_equal_twins_are_distinct(records, name):
    record = records[name]
    assert type(record).__name__ == name
    twin = dataclasses.replace(record)
    assert record == record and record != twin and not record == twin
    assert hash(record) == hash(record) and len({record, twin}) == 2
