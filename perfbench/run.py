"""nepritz benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 20 --trace 0

Each timed case is ``Subspace.from_basis(W)`` followed by
``analyze_case(T, ref, S)`` on inputs generated from the seed (see
``workloads.py``).  The loop is closed: one process, one case at a time, the
next starting when the previous returns.  Every output is checked
(``check.py``); the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit code is 1 when any
case failed or any check did not pass.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced passes and reports per-layer
counts and self times, the tracing overhead, import times, and an n-scaling
curve of the large_n family.  Every run is appended to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "case_ms_p50": "ms",
    "case_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

EVALUATORS = (
    "perturbation_norm_bound",
    "projected_sigma_bound",
    "ritz_value_bound",
    "residual_angle_bound",
    "ritz_vector_angle_bound",
    "refined_bounds",
    "refined_uniqueness_check",
    "angle_sandwich",
    "residual_ratio_sandwich",
)
# span name -> fields reported per case in the traced run
FUNCTION_FIELDS = {
    "experiments.analyze_case": ("self_s",),
    "nep_model.taylor_remainder_const": ("calls", "total_s"),
    "nep_model.eval_T": ("calls", "self_s"),
    "nep_model.MatrixFunction.compress": ("calls",),
    "dense_kernels.norm2": ("calls", "self_s"),
    "dense_kernels.svd": ("calls", "self_s"),
    "dense_kernels.singular_values": ("calls", "self_s"),
    "dense_kernels.solve_linear": ("calls", "self_s"),
    "dense_kernels.complete_basis": ("self_s",),
    "dense_kernels.householder_complement": ("calls",),
    "projection.Subspace.from_basis": ("total_s",),
    "projection.deviation": ("total_s",),
    "projection.project": ("total_s",),
    "projection.perturbation_witness": ("total_s",),
    "small_nep_solver.solve_projected": ("total_s",),
    "small_nep_solver.polynomialize": ("total_s",),
    "small_nep_solver.companion_eigs": ("total_s",),
    "small_nep_solver.newton_trace_refine": ("calls", "total_s"),
    "extraction.ritz_vector": ("total_s",),
    "extraction.refined_vector": ("total_s",),
    "bounds_lab.sigma_min_profile": ("calls", "total_s"),
    "bounds_lab.eigvec_complement_function": ("calls",),
    **{f"bounds_lab.{e}": ("total_s",) for e in EVALUATORS},
}
FIELD_UNITS = {"calls": "calls/case", "self_s": "s/case", "total_s": "s/case"}
INAPPLICABLE_CLASSES = ("DegenerateRatio", "DegenerateSigma", "HypothesisFailed",
                        "InapplicableBound")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    from tracer import LAYERS
    from workloads import SCALING_NS

    units = {f"{name}.{f}": FIELD_UNITS[f]
             for name, fields in FUNCTION_FIELDS.items() for f in fields}
    units["dense_kernels.input_bytes_computed"] = "B/case"
    units["small_nep_solver.eigs_per_start"] = "ratio"
    units["small_nep_solver.spurious"] = "count/case"
    units.update({f"layer.{layer}.self_s": "s/case" for layer in LAYERS})
    units.update({f"inapplicable.{c}": "count/case" for c in INAPPLICABLE_CLASSES})
    units["import.scipy_linalg_s"] = "s"
    units["import.nepritz_own_s"] = "s"
    units["trace.untraced_wall_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    for n in SCALING_NS:
        units[f"scaling.n{n}.case_s"] = "s"
        units.update({f"scaling.n{n}.{layer}.share": "ratio" for layer in LAYERS})
    return units


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile that still
    has TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def time_children(argv: list[str], samples: int, probe=None) -> list[tuple[float, str]]:
    """Wall time and stdout of fresh interpreters running this script.

    The children take the CPUs in turn.  With a ``speed.Probe``, each time is
    scaled to reference speed by probes run just before and after the child.
    """
    from speed import at_reference_speed

    cpus = sorted(os.sched_getaffinity(0))
    out = []
    try:
        for j in range(samples):
            os.sched_setaffinity(0, {cpus[j % len(cpus)]})
            before = probe() if probe else None
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                raise RuntimeError(f"child {argv} failed: {proc.stderr.strip()}")
            if probe:
                elapsed = at_reference_speed(elapsed, before, probe())
            out.append((elapsed, proc.stdout))
    finally:
        os.sched_setaffinity(0, cpus)
    return out


def import_probe() -> None:
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import scipy.linalg  # noqa: F401
    t2 = time.perf_counter()
    import nepritz  # noqa: F401
    t3 = time.perf_counter()
    print(json.dumps({"numpy_s": t1 - t0, "scipy_linalg_s": t2 - t1, "nepritz_own_s": t3 - t2}))


def run_case(case, tally, tracer=None) -> tuple[float, object]:
    """Time one case, then check its output with the clock stopped."""
    import nepritz as nr

    if tracer is not None:
        tracer.case = case.case_id
    t0 = time.perf_counter()
    try:
        res = nr.analyze_case(case.t, case.ref, nr.Subspace.from_basis(case.basis))
    except Exception as exc:  # noqa: BLE001 - any raise is a failed case
        res = exc
    secs = time.perf_counter() - t0
    if isinstance(res, Exception):
        tally.add_failure(case.case_id, res)
    else:
        tally.add(case.case_id, res)
    return secs, res


def run_pass(cases, tally, tracer=None) -> tuple[float, list]:
    """One closed-loop pass: (summed case time, results)."""
    timed = [run_case(c, tally, tracer) for c in cases]
    return sum(secs for secs, _ in timed), [res for _, res in timed]


def timed_cases(cases, tally, seconds: float, probe) -> list[list[tuple[float, float]]]:
    """Cycle through the cases until every case ran twice and the time is up.

    Returns, per case, its samples as (seconds, seconds at reference speed);
    a probe runs between consecutive cases (see ``speed.py``).  Stopping
    between cases, not between passes, keeps a long pass from overrunning the
    measuring window.  Each pass is pinned to the next CPU in turn, so every
    case runs on every CPU and a probe runs on the CPU of the case next to it.
    """
    from speed import at_reference_speed

    cpus = sorted(os.sched_getaffinity(0))
    samples: list[list[tuple[float, float]]] = [[] for _ in cases]
    deadline = time.perf_counter() + seconds
    k = 0
    try:
        while k < 2 * len(cases) or time.perf_counter() < deadline:
            i = k % len(cases)
            if i == 0:
                os.sched_setaffinity(0, {cpus[(k // len(cases)) % len(cpus)]})
                before = probe()
            secs = run_case(cases[i], tally)[0]
            after = probe()
            samples[i].append((secs, at_reference_speed(secs, before, after)))
            before = after
            k += 1
    finally:
        os.sched_setaffinity(0, cpus)
    return samples


def traced_pass(cases, tally) -> tuple[float, dict, list, list]:
    from tracer import Tracer, aggregate

    with Tracer() as tracer:
        wall, results = run_pass(cases, tally, tracer)
    return wall, aggregate(tracer.spans), results, tracer.spans


def per_case_metrics(stats: dict, results: list, cases: int) -> dict:
    """Per-layer figures of one traced pass, each divided by the case count."""
    from tracer import layer_self

    out = {}
    for name, fields in FUNCTION_FIELDS.items():
        row = stats.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for f in fields:
            out[f"{name}.{f}"] = row[f] / cases
    out["dense_kernels.input_bytes_computed"] = sum(
        row["bytes"] for name, row in stats.items()
        if name.startswith("dense_kernels.")) / cases
    spectra = [r.spectrum for r in results if not isinstance(r, Exception)]
    starts = stats.get("small_nep_solver.newton_trace_refine", {"calls": 0})["calls"]
    out["small_nep_solver.eigs_per_start"] = (
        sum(len(s.eigenvalues) for s in spectra) / starts if starts else 0.0)
    out["small_nep_solver.spurious"] = sum(len(s.filtered_spurious) for s in spectra) / cases
    for layer, secs in layer_self(stats).items():
        out[f"layer.{layer}.self_s"] = secs / cases
    reasons = Counter(reason.split(":", 1)[0] for r in results
                      if not isinstance(r, Exception) for _, reason in r.inapplicable)
    for cls in INAPPLICABLE_CLASSES:
        out[f"inapplicable.{cls}"] = reasons[cls] / cases
    return out


def write_spans(spans: list, path: Path) -> None:
    with path.open("w") as fh:
        for name, case, start, end, parent, _, nbytes in spans:
            fh.write(json.dumps({"name": name, "case": case, "start": start, "end": end,
                                 "parent": parent, "bytes": nbytes}) + "\n")


def scaling_curve(seed: int, tally) -> dict:
    """One large_n-family case per n: untraced time, then traced layer shares.

    The cases are not part of the workload, so they are checked on their own
    tally (no reference comparison) and then folded into ``tally``.
    """
    from check import Tally
    from tracer import layer_self
    from workloads import SCALING_NS, scaling_case

    own = Tally()
    out = {}
    for n in SCALING_NS:
        cases = [scaling_case(n, seed)]
        case_s, _ = run_pass(cases, own)
        wall, stats, _, _ = traced_pass(cases, own)
        out[f"scaling.n{n}.case_s"] = case_s
        for layer, secs in layer_self(stats).items():
            out[f"scaling.n{n}.{layer}.share"] = secs / wall
    tally.absorb(own)
    return out


def measure(args, tally, info: dict) -> dict:
    from workloads import build

    cases = build(args.workload, args.seed)
    run_case(cases[0], tally)  # warm-up: first LAPACK calls, lazy imports
    if not args.trace:
        from speed import REF_PROBE_S, Probe

        probe = Probe()
        setup = [t for t, _ in time_children(
            ["--setup-only", "--workload", args.workload, "--seed", str(args.seed)],
            SETUP_SAMPLES, probe)]
        samples = timed_cases(cases, tally, args.seconds, probe)
        if probe.contaminated():
            raise RuntimeError(
                f"other threads of the process used {probe.foreign_cpu_s:.4f} s of CPU "
                f"during {probe.probe_s:.4f} s of speed probes; the timings are invalid")
        raw = [secs for per_case in samples for secs, _ in per_case]
        value, pct, count = tail(raw)
        # each case at the median of its samples, at reference speed
        typical = [statistics.median(ref for _, ref in per_case) for per_case in samples]
        info["passes"] = min(len(per_case) for per_case in samples)
        info["latency_all_samples"] = {
            "p50_ms": 1e3 * statistics.median(raw),
            "tail_ms": 1e3 * value, "tail_percentile": pct, "samples": count,
            "wall_s": sum(statistics.median(secs for secs, _ in per_case)
                          for per_case in samples)}
        info["speed"] = {"ref_probe_s": REF_PROBE_S, "probe_cpu_s": probe.probe_s,
                         "foreign_cpu_s": probe.foreign_cpu_s}
        info["setup_samples_s"] = setup
        return {
            "setup_s": statistics.median(setup),
            "wall_s": sum(typical),
            "case_ms_p50": 1e3 * statistics.median(typical),
            "case_ms_p90": 1e3 * statistics.quantiles(typical, n=10, method="inclusive")[-1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    imports = [json.loads(out) for _, out in time_children(["--import-probe"], IMPORT_SAMPLES)]
    untraced, traced, rows = [], [], []
    deadline = time.perf_counter() + args.seconds
    # a round (one untraced and one traced pass) starts only if one more of
    # the last round's length still fits, so long passes do not overrun
    round_s = 0.0
    while not traced or time.perf_counter() + round_s < deadline:
        round_start = time.perf_counter()
        untraced.append(run_pass(cases, tally)[0])
        wall, stats, results, spans = traced_pass(cases, tally)
        traced.append(wall)
        rows.append(per_case_metrics(stats, results, len(cases)))
        if len(rows) == 1:
            OUT_DIR.mkdir(exist_ok=True)
            span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            write_spans(spans, span_file)
            info["spans_file"] = str(span_file.relative_to(HERE.parent))
        round_s = time.perf_counter() - round_start
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics["import.scipy_linalg_s"] = statistics.median(i["scipy_linalg_s"] for i in imports)
    metrics["import.nepritz_own_s"] = statistics.median(i["nepritz_own_s"] for i in imports)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics.update(scaling_curve(args.seed, tally))
    info["passes"] = len(traced)
    return metrics


def record(entry: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with (OUT_DIR / "runs.jsonl").open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="suite", help="suite, large_n or exp_delay")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--import-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.prepare()
    except bootstrap.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.import_probe:
        import_probe()
        return 0
    from workloads import WORKLOADS, build

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        build(args.workload, args.seed)
        return 0

    from check import Tally, load_reference
    from workloads import DEFAULT_SEED

    reference = load_reference(args.workload) if args.seed == DEFAULT_SEED else None
    tally = Tally(reference=reference)
    info: dict = {"env": bootstrap.environment(args.seed), "workload": args.workload,
                  "trace": args.trace, "seconds": args.seconds}
    entry = {"time": datetime.datetime.now(datetime.timezone.utc).isoformat(), "info": info}
    try:
        metrics = measure(args, tally, info)
    except Exception:
        entry["error"] = traceback.format_exc()
        record(entry)
        raise
    units = END_TO_END if not args.trace else per_layer_units()
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    info["checks"] = tally.summary()
    info["problems"] = tally.problems[:50]
    entry["result"] = result
    record(entry)
    print("# env " + json.dumps(info["env"]))
    print("# checks " + json.dumps(info["checks"]))
    if "latency_all_samples" in info:
        print("# latency_all_samples " + json.dumps(info["latency_all_samples"]))
    for line in tally.problems[:20]:
        print("# problem " + line)
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
