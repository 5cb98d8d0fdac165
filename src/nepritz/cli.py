"""Command-line harness.

Subcommands map onto the canned experiments: ``example1`` (exact-capture
degenerate projection), ``example2`` (perturbed-subspace statistics),
``sweep`` (deviation ladder on a user problem file), and ``verify-all``
(every bound evaluator over the built-in suite).  Exit code 0 means every
check or applicable bound holds and 2 a usage error, so the harness doubles
as a CI gate.  A JSON config file can mirror any of a subcommand's flags;
explicit flags win.  This module writes every result file; the library
returns documents and reports.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import experiments as ex
from .errors import NepRitzError
from .nep_model import load_problem


def _parse_selection(text: str) -> tuple[str, complex | None]:
    if text == "oracle":
        return "oracle", None
    if text.startswith("target="):
        try:
            target = complex(text.split("=", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse target value in {text!r}")
        if not cmath.isfinite(target):
            raise argparse.ArgumentTypeError(f"target must be finite, not {target}")
        return "target", target
    raise argparse.ArgumentTypeError("selection must be 'oracle' or 'target=<complex>'")


def _parse_eps(text: str) -> list[float]:
    """Comma-separated deviations in (0, 1) that span the 4 decades a sweep needs."""
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad epsilon list {text!r}")
    try:
        ex.sweep_deviations(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return values


def _parse_sigma(text: str) -> float:
    try:
        sigma = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"sigma must be a number, not {text!r}")
    if not 0 <= sigma < math.inf:  # a comparison that NaN fails
        raise argparse.ArgumentTypeError("sigma must be finite and nonnegative")
    return sigma


def _integer_at_least(name: str, least: int):
    """Parser of an integer option; the error names its config key."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"{name} must be an integer >= {least}")
        return value
    return parse


def _flag_text(value, default) -> str:
    """A config value as the text its flag would carry.

    TypeError, naming the JSON type wanted, unless value has the JSON type of
    the flag's default: a string where that is None or a string, a list of
    numbers where it is a list, else a number.
    """
    if default is None or isinstance(default, str):
        if isinstance(value, str):
            return value
        raise TypeError("a string")
    if isinstance(default, list):
        if isinstance(value, list):
            try:
                return ",".join(_flag_text(v, default[0]) for v in value)
            except TypeError:
                pass
        raise TypeError("a list of numbers")
    # float(True) is 1.0, so a JSON boolean is no number here
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return repr(value)
    raise TypeError("a number")


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> dict[str, str]:
    """The config file's values as flag texts, keyed by the subcommand's options.

    A key is a long option of the subcommand, underscored, other than
    --config; any other key, or a value of the wrong JSON type, is a usage
    error.
    """
    try:
        loaded = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config {path}: {exc}")
    if not isinstance(loaded, dict):
        parser.error("config file must hold a JSON object")
    defaults = {a.dest: a.default for a in parser._actions
                if a.option_strings and a.dest not in ("help", "config")}
    unknown = sorted(set(loaded) - set(defaults))
    if unknown:
        parser.error(f"unknown config keys: {unknown}")
    texts = {}
    for key, value in loaded.items():
        try:
            texts[key] = _flag_text(value, defaults[key])
        except TypeError as exc:
            parser.error(f"config key {key} must be {exc}")
    return texts


def _write_csv(path, header: list[str], rows: list[dict]) -> None:
    """One CSV row per dict, its columns in header order; a missing key is empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, restval="")
        writer.writeheader()
        writer.writerows(rows)


def _emit(doc: dict, json_path, csv_path, csv_rows: list[dict]) -> None:
    if json_path:
        Path(json_path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if csv_path:
        _write_csv(csv_path, sorted({k for row in csv_rows for k in row}), csv_rows)


def _write_summary(path, tagged: list) -> None:
    """summary.csv: per (instance id, BoundReport) pair, the report's sides and margin."""
    _write_csv(path, ["instance_id", "theorem_id", "lhs", "rhs", "margin"], [
        {"instance_id": inst, "theorem_id": rep.theorem_id, "lhs": repr(rep.lhs),
         "rhs": repr(rep.rhs), "margin": repr(rep.margin)} for inst, rep in tagged])


def _write_reports(out_dir, tagged: list) -> None:
    """reports.jsonl, one JSON object per report with its instance id, and summary.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "reports.jsonl").write_text("".join(
        json.dumps({"instance_id": inst, **asdict(rep)}, sort_keys=True) + "\n"
        for inst, rep in tagged))
    _write_summary(out / "summary.csv", tagged)


def _check_rows(checks: list[dict]) -> list[dict]:
    return [{"name": c["name"], "ok": int(c["ok"]), "value": repr(c["value"])}
            for c in checks]


def _record_row(record: dict) -> dict:
    """A record's CSV row: mu in two columns, a verdict_<id> column per bound."""
    row = {"mu_re": repr(record["mu"][0]), "mu_im": repr(record["mu"][1])}
    for key, value in record.items():
        if key == "verdicts":
            row.update((f"verdict_{tid}", "" if v is None else int(v))
                       for tid, v in value.items())
        elif key != "mu":
            row[key] = repr(value)
    return row


def _record_rows(records: list[dict]) -> list[dict]:
    return [_record_row(r) for r in sorted(records, key=lambda r: (r["epsilon"], r["seed"]))]


def _cmd_example1(args: argparse.Namespace) -> int:
    mode, target = args.selection
    if mode == "target":
        doc = ex.run_example1_target(target)
        mu_re, mu_im = doc["mu"]
        print(f"selected value {complex(mu_re, mu_im):.6g} for target {target:.6g}")
        row = _record_row({k: v for k, v in doc.items() if k != "ok"})
        _emit(doc, args.json, args.csv, [row])
        return 0 if doc["ok"] else 1
    result = ex.run_example1()
    for c in result["checks"]:
        print(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']}: {c['value']:.3e}")
    _emit(result, args.json, args.csv, _check_rows(result["checks"]))
    return 0 if result["ok"] else 1


def _cmd_example2(args: argparse.Namespace) -> int:
    result = ex.run_example2(
        sigma=args.sigma,
        seeds=tuple(range(args.seeds)),
        seed_base=args.seed_base,
    )
    for c in result["checks"]:
        print(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']}: {c['value']:.3e}")
    if result["anomalous_seeds"]:
        print(f"anomalous seeds: {result['anomalous_seeds']}")
    _emit(result, args.json, args.csv, _record_rows(result["records"]))
    return 0 if result["ok"] else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not args.problem:
        raise argparse.ArgumentTypeError("sweep requires --problem, a problem JSON file")
    try:
        t, ref = load_problem(args.problem)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"cannot load problem {args.problem}: {exc}")
    if ref is None:
        raise argparse.ArgumentTypeError("sweep needs a problem with a 'reference' block")
    if args.subspace_dim >= t.n:
        raise argparse.ArgumentTypeError(
            f"subspace_dim must be below the problem dimension {t.n}")
    _, target = args.selection
    result = ex.run_sweep(
        t, ref,
        eps_list=args.eps,
        trials=args.trials,
        m=args.subspace_dim,
        seed_base=args.seed_base,
        target=target,
    )
    if result["slope_mu"] is None:
        print("no slope fitted: fewer than two deviations kept a record")
    else:
        print(f"slope |mu - lambda*| vs eps: {result['slope_mu']:.3f}")
        print(f"slope sin(refined angle) vs eps: {result['slope_refined']:.3f}")
    for line in result["failures"]:
        print(f"[error] {line}")
    _emit(result, args.json, args.csv, _record_rows(result["records"]))
    return 0 if result["ok"] else 1


def _cmd_verify_all(args: argparse.Namespace) -> int:
    result = ex.verify_all()
    tagged = result.pop("reports")
    if args.out is not None:
        _write_reports(args.out, tagged)
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
    _emit(result, args.json, None, [])
    if args.csv:
        _write_summary(args.csv, tagged)
    return 0 if result["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file mirroring the flags; flags win")
    common.add_argument("--json", help="write the result document to this path")
    common.add_argument("--csv", help="write one CSV row per record, check or report")
    # only example1 and sweep select among several Ritz values
    selection = argparse.ArgumentParser(add_help=False)
    selection.add_argument("--selection", type=_parse_selection, default="oracle",
                           help="oracle | target=<complex>")
    seed_base = argparse.ArgumentParser(add_help=False)
    seed_base.add_argument("--seed-base", type=_integer_at_least("seed_base", 0),
                           default=ex.DEFAULT_SEED_BASE, help="seed of the first trial")

    p = argparse.ArgumentParser(
        prog="nepritz",
        description="subspace extraction laboratory for nonlinear eigenvalue problems",
    )
    sub = p.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("example1", parents=[common, selection],
                        help="exact-capture degenerate projection checks")
    p1.set_defaults(handler=_cmd_example1)

    p2 = sub.add_parser("example2", parents=[common, seed_base],
                        help="perturbed-subspace statistics")
    p2.add_argument("--sigma", type=_parse_sigma, default=1e-4,
                    help="perturbation standard deviation")
    p2.add_argument("--seeds", type=_integer_at_least("seeds", 1), default=20,
                    help="number of seeds")
    p2.set_defaults(handler=_cmd_example2)

    p3 = sub.add_parser("sweep", parents=[common, selection, seed_base],
                        help="deviation sweep on a problem")
    p3.add_argument("--problem", help="problem JSON file")
    p3.add_argument("--eps", type=_parse_eps,
                    default=[1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8],
                    help="comma-separated deviations")
    p3.add_argument("--trials", type=_integer_at_least("trials", 1), default=5)
    p3.add_argument("--subspace-dim", type=_integer_at_least("subspace_dim", 1),
                    default=2)
    p3.set_defaults(handler=_cmd_sweep)

    p4 = sub.add_parser("verify-all", parents=[common],
                        help="run every bound over the built-in suite")
    p4.add_argument("--out", help="directory for reports.jsonl / summary.csv")
    p4.set_defaults(handler=_cmd_verify_all)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # the file's values become the subcommand's defaults, so the flags'
        # own type parsers check them and the flags given here still win
        (subcommands,) = [a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction)]
        command = subcommands.choices[args.command]
        command.set_defaults(**_config_defaults(command, args.config))
        args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except (NepRitzError, OSError) as exc:  # OSError: an output path not writable
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
