"""Command-line harness.

Subcommands map onto the canned experiments: ``example1`` (exact-capture
degenerate projection), ``example2`` (perturbed-subspace statistics),
``sweep`` (deviation ladder on a user problem file), and ``verify-all``
(every bound evaluator over the built-in suite).  Exit code 0 means every
check or applicable bound holds and 2 a usage error, so the harness doubles
as a CI gate.  A JSON config file can mirror any flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import bounds_lab as bl
from . import experiments as ex
from .errors import NepRitzError
from .nep_model import load_problem


def _parse_selection(text: str) -> tuple[str, complex | None]:
    if text == "oracle":
        return "oracle", None
    if text.startswith("target="):
        try:
            return "target", complex(text.split("=", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse target value in {text!r}")
    raise argparse.ArgumentTypeError("selection must be 'oracle' or 'target=<complex>'")


def _parse_eps_list(text: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad epsilon list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("epsilon list is empty")
    if any(not 0.0 < v < 1.0 for v in values):
        raise argparse.ArgumentTypeError("epsilon values must lie in (0, 1)")
    return values


_GLOBAL_DEFAULTS = {
    "selection": "oracle",
    "json": None,
    "csv": None,
    "sigma": 1e-4,
    "seeds": 20,
    "seed_base": 42,
    "eps": [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8],
    "trials": 5,
    "subspace_dim": 2,
    "out": None,
    "problem": None,
}


def _merge_config(args: argparse.Namespace) -> dict:
    """config-file values fill unset flags; built-in defaults fill the rest."""
    merged = dict(_GLOBAL_DEFAULTS)
    if getattr(args, "config", None):
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise argparse.ArgumentTypeError(f"cannot read config {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise argparse.ArgumentTypeError("config file must hold a JSON object")
        unknown = set(loaded) - set(merged)
        if unknown:
            raise argparse.ArgumentTypeError(f"unknown config keys: {sorted(unknown)}")
        # the key follows its flag, which only some subcommands declare
        if "selection" in loaded and not hasattr(args, "selection"):
            raise argparse.ArgumentTypeError(
                f"selection is not an option of {args.command}")
        merged.update(loaded)
    for key in merged:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if isinstance(merged["eps"], str):
        merged["eps"] = _parse_eps_list(merged["eps"])
    if isinstance(merged["selection"], str):
        merged["selection"] = _parse_selection(merged["selection"])
    try:
        merged["sigma"] = float(merged["sigma"])
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError("sigma must be a number")
    # a comparison that NaN fails
    if not 0 <= merged["sigma"] < math.inf:
        raise argparse.ArgumentTypeError("sigma must be finite and nonnegative")
    for key, least in (("seeds", 1), ("trials", 1), ("subspace_dim", 1), ("seed_base", 0)):
        val = merged[key]
        if isinstance(val, bool) or not isinstance(val, int) or val < least:
            raise argparse.ArgumentTypeError(f"{key} must be an integer >= {least}")
    return merged


def _emit(doc: dict, json_path, csv_path, csv_rows: list[dict]) -> None:
    if json_path:
        Path(json_path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if csv_path:
        header = sorted({k for row in csv_rows for k in row})
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header, restval="")
            writer.writeheader()
            for row in csv_rows:
                writer.writerow(row)


def _check_rows(checks: list[dict]) -> list[dict]:
    return [{"name": c["name"], "ok": int(c["ok"]), "value": repr(c["value"])}
            for c in checks]


def _verdict_columns(verdicts: dict) -> dict:
    return {f"verdict_{tid}": "" if v is None else int(v) for tid, v in verdicts.items()}


def _record_rows(records: list[dict]) -> list[dict]:
    rows = []
    for r in records:
        row = {
            "epsilon": repr(r["epsilon"]),
            "seed": r["seed"],
            "mu_re": repr(r["mu"][0]),
            "mu_im": repr(r["mu"][1]),
            "mu_dist": repr(r["mu_dist"]),
            "sin_ritz": repr(r["sin_ritz"]),
            "sin_refined": repr(r["sin_refined"]),
            "rho_ritz": repr(r["rho_ritz"]),
            "sigma_hat_1": repr(r["sigma_hat_1"]),
        }
        row.update(_verdict_columns(r["verdicts"]))
        rows.append(row)
    rows.sort(key=lambda row: (row["epsilon"], row["seed"]))
    return rows


def _cmd_example1(cfg: dict) -> int:
    mode, target = cfg["selection"]
    if mode == "target":
        doc = ex.run_example1_target(target)
        mu_re, mu_im = doc["mu"]
        print(f"selected value {complex(mu_re, mu_im):.6g} for target {target:.6g}")
        row = {"mu_re": repr(mu_re), "mu_im": repr(mu_im),
               "sin_refined": repr(doc["sin_refined"])}
        row.update(_verdict_columns(doc["verdicts"]))
        _emit(doc, cfg["json"], cfg["csv"], [row])
        return 0
    result = ex.run_example1()
    for c in result["checks"]:
        print(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']}: {c['value']:.3e}")
    _emit(result, cfg["json"], cfg["csv"], _check_rows(result["checks"]))
    return 0 if result["ok"] else 1


def _cmd_example2(cfg: dict) -> int:
    result = ex.run_example2(
        sigma=cfg["sigma"],
        seeds=tuple(range(cfg["seeds"])),
        seed_base=cfg["seed_base"],
    )
    for c in result["checks"]:
        print(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']}: {c['value']:.3e}")
    if result["anomalous_seeds"]:
        print(f"anomalous seeds: {result['anomalous_seeds']}")
    _emit(result, cfg["json"], cfg["csv"], _record_rows(result["records"]))
    return 0 if result["ok"] else 1


def _cmd_sweep(cfg: dict) -> int:
    if not cfg["problem"]:
        raise argparse.ArgumentTypeError("sweep requires --problem, a problem JSON file")
    try:
        t, ref = load_problem(cfg["problem"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"cannot load problem {cfg['problem']}: {exc}")
    if ref is None:
        raise argparse.ArgumentTypeError("sweep needs a problem with a 'reference' block")
    if cfg["subspace_dim"] >= t.n:
        raise argparse.ArgumentTypeError(
            f"subspace_dim must be below the problem dimension {t.n}")
    _, target = cfg["selection"]
    result = ex.run_sweep(
        t, ref,
        eps_list=cfg["eps"],
        trials=cfg["trials"],
        m=cfg["subspace_dim"],
        seed_base=cfg["seed_base"],
        target=target,
    )
    if result["slope_mu"] is None:
        print("no slope fitted: fewer than two deviations kept a record")
    else:
        print(f"slope |mu - lambda*| vs eps: {result['slope_mu']:.3f}")
        print(f"slope sin(refined angle) vs eps: {result['slope_refined']:.3f}")
    for line in result["failures"]:
        print(f"[error] {line}")
    _emit(result, cfg["json"], cfg["csv"], _record_rows(result["records"]))
    return 0 if result["ok"] else 1


def _cmd_verify_all(cfg: dict) -> int:
    result = ex.verify_all(out_dir=cfg["out"])
    tagged = result.pop("reports")
    print(
        f"{result['n_reports']} bound reports over {result['n_instances']} instances; "
        f"{result['n_inapplicable']} inapplicable"
    )
    for inst, tid in result["failures"]:
        print(f"[FAIL] {inst}: {tid}")
    for inst, msg in result["errors"]:
        print(f"[error] {inst}: {msg}")
    if result["ok"]:
        print("all applicable bounds hold")
    _emit(result, cfg["json"], None, [])
    if cfg["csv"]:
        bl.write_summary_csv(tagged, cfg["csv"])
    return 0 if result["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file mirroring the flags; flags win")
    common.add_argument("--json", help="write the result document to this path")
    common.add_argument("--csv", help="write one CSV row per record, check or report")
    # only example1 and sweep select among several Ritz values
    selection = argparse.ArgumentParser(add_help=False)
    selection.add_argument("--selection", type=_parse_selection,
                           help="oracle | target=<complex>")

    p = argparse.ArgumentParser(
        prog="nepritz",
        description="subspace extraction laboratory for nonlinear eigenvalue problems",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("example1", parents=[common, selection],
                   help="exact-capture degenerate projection checks")

    p2 = sub.add_parser("example2", parents=[common],
                        help="perturbed-subspace statistics")
    p2.add_argument("--sigma", type=float, help="perturbation standard deviation")
    p2.add_argument("--seeds", type=int, help="number of seeds")
    p2.add_argument("--seed-base", dest="seed_base", type=int)

    p3 = sub.add_parser("sweep", parents=[common, selection],
                        help="deviation sweep on a problem")
    p3.add_argument("--problem", help="problem JSON file")
    p3.add_argument("--eps", type=_parse_eps_list, help="comma-separated deviations")
    p3.add_argument("--trials", type=int)
    p3.add_argument("--subspace-dim", dest="subspace_dim", type=int)
    p3.add_argument("--seed-base", dest="seed_base", type=int)

    p4 = sub.add_parser("verify-all", parents=[common],
                        help="run every bound over the built-in suite")
    p4.add_argument("--out", help="directory for reports.jsonl / summary.csv")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "example1": _cmd_example1,
        "example2": _cmd_example2,
        "sweep": _cmd_sweep,
        "verify-all": _cmd_verify_all,
    }[args.command]
    try:
        return handler(_merge_config(args))
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except NepRitzError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
