"""Tests of the benchmark itself: inputs, output checks, tracing, metric names.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import nepritz
import run
import speed
from check import Tally, load_reference
from nepritz import Exponential, Subspace, analyze_case, builtin_suite, eval_T
from tracer import Tracer, aggregate
from workloads import DEFAULT_SEED, WORKLOADS, build, planted_delay_nep

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _same_case(a, b) -> bool:
    if a.case_id != b.case_id or len(a.t.terms) != len(b.t.terms):
        return False
    for (fa, ma), (fb, mb) in zip(a.t.terms, b.t.terms):
        if type(fa) is not type(fb) or repr(fa) != repr(fb) or not np.array_equal(ma, mb):
            return False
    return (a.ref.lambda_star == b.ref.lambda_star
            and np.array_equal(a.ref.x_star, b.ref.x_star)
            and np.array_equal(a.basis, b.basis))


@pytest.mark.parametrize("workload", ["suite", "exp_delay"])
def test_generators_are_deterministic(workload):
    first, second = build(workload, 3), build(workload, 3)
    assert len(first) == len(second) > 0
    assert all(_same_case(a, b) for a, b in zip(first, second))
    other = build(workload, 4)
    assert not all(_same_case(a, b) for a, b in zip(first, other))


def test_default_seed_suite_is_builtin_suite():
    ours = build("suite", DEFAULT_SEED)
    theirs = builtin_suite()
    assert len(ours) == len(theirs) == 38
    for mine, inst in zip(ours, theirs):
        ref_case = type(mine)(inst.instance_id, inst.t, inst.ref, inst.subspace.basis)
        assert _same_case(mine, ref_case), inst.instance_id


def test_exp_delay_generator_plants_a_valid_pair():
    t, ref = planted_delay_nep(8, seed=123)
    assert any(isinstance(fn, Exponential) for fn, _ in t.terms)
    ref.validate(t)
    assert np.linalg.norm(eval_T(t, ref.lambda_star, 0) @ ref.x_star) < 1e-12
    case = build("exp_delay", DEFAULT_SEED)[2]
    assert case.case_id.endswith("eps1e-08")
    result = analyze_case(case.t, case.ref, Subspace.from_basis(case.basis))
    assert result.spectrum.method == "newton-only"
    assert abs(result.mu - case.ref.lambda_star) < 1e-6


@pytest.fixture(scope="module")
def suite_case_and_result():
    case = build("suite", DEFAULT_SEED)[0]
    return case, analyze_case(case.t, case.ref, Subspace.from_basis(case.basis))


def test_output_check_passes_the_reference(suite_case_and_result):
    case, result = suite_case_and_result
    tally = Tally(reference=load_reference("suite"))
    tally.add(case.case_id, result)
    assert tally.correct and tally.reports > 0


def _perturbed(result, index, **changes):
    reports = list(result.reports)
    reports[index] = dataclasses.replace(reports[index], **changes)
    return dataclasses.replace(result, reports=reports)


@pytest.mark.parametrize("changes, counter", [
    ({"holds": False}, "violations"),
    ({"lhs": 1.5}, "drift"),
    ({"theorem_id": "no_such_theorem"}, "mismatches"),
])
def test_output_check_fails_on_a_perturbed_report(suite_case_and_result, changes, counter):
    case, result = suite_case_and_result
    tally = Tally(reference=load_reference("suite"))
    tally.add(case.case_id, _perturbed(result, 0, **changes))
    assert getattr(tally, counter) >= 1
    assert not tally.correct


def test_failed_case_counts_against_attempted():
    tally = Tally()
    tally.add_failure("x", RuntimeError("boom"))
    assert tally.summary()["failed_frac"] == 1.0 and not tally.correct


def test_tracer_rebinds_every_alias_and_restores_them():
    original = nepritz.nep_model.eval_T
    with Tracer():
        assert nepritz.experiments.eval_T is not original
        assert nepritz.bounds_lab.eval_T is nepritz.nep_model.eval_T
        assert nepritz.eval_T is nepritz.nep_model.eval_T
    for ns in (nepritz, nepritz.nep_model, nepritz.experiments, nepritz.bounds_lab,
               nepritz.projection, nepritz.extraction, nepritz.small_nep_solver):
        assert ns.eval_T is original
    assert not hasattr(nepritz.Subspace.from_basis, "__wrapped__")


def test_span_self_times_sum_to_traced_wall():
    cases = build("suite", DEFAULT_SEED)[:6]
    untraced, _ = run.run_pass(cases, Tally())
    tracer = Tracer()
    with tracer:
        traced, _ = run.run_pass(cases, Tally(), tracer)
    stats = aggregate(tracer.spans)
    self_sum = sum(row["self_s"] for row in stats.values())
    roots = [s for s in tracer.spans if s[4] == -1]
    assert {s[0] for s in roots} == {"projection.Subspace.from_basis", "experiments.analyze_case"}
    assert {s[1] for s in tracer.spans} == {c.case_id for c in cases}
    gap = traced - self_sum
    # the only traced time outside the root spans is their own wrapper entry
    # and exit, a small part of the overhead tracing adds
    assert 0.0 <= gap <= max(0.05 * (traced - untraced), 0.01 * traced)
    assert stats["nep_model.eval_T"]["calls"] > 0


def test_tail_keeps_ten_samples_beyond():
    value, pct, count = run.tail([float(v) for v in range(1, 101)])
    assert (value, pct, count) == (90.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_reference_speed_scales_by_the_probe_mean():
    ref = speed.REF_PROBE_S
    assert speed.at_reference_speed(2.0, ref, ref) == pytest.approx(2.0)
    assert speed.at_reference_speed(2.0, 1.5 * ref, 2.5 * ref) == pytest.approx(1.0)


def test_probe_notices_other_threads_burning_cpu():
    probe = speed.Probe()
    for _ in range(5):
        probe()
    assert not probe.contaminated()
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    busy = threading.Thread(target=spin)
    busy.start()
    try:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            probe()
    finally:
        stop.set()
        busy.join()
    assert probe.contaminated()


def test_benchmark_json_matches_the_code():
    doc = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
