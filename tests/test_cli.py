import argparse
import csv
import dataclasses
import json
from pathlib import Path

import pytest

import nepritz.experiments as ex
from nepritz.cli import build_parser, main
from nepritz.experiments import fixture_problem, random_planted_nep, simple_rate_instance
from nepritz.nep_model import ReferencePair, load_problem, save_problem


PLANTED_POLY4 = Path(__file__).resolve().parents[1] / "demos" / "problems" / "planted_poly4.json"


@pytest.fixture()
def problem_file(tmp_path):
    t, ref, m = simple_rate_instance()
    path = tmp_path / "problem.json"
    save_problem(path, t, ref)
    return path


class TestExample1Command:
    def test_exit_zero(self, capsys):
        assert main(["example1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_csv_output(self, tmp_path):
        cpath = tmp_path / "checks.csv"
        assert main(["example1", "--csv", str(cpath)]) == 0
        lines = cpath.read_text().splitlines()
        assert lines[0] == "name,ok,value"
        assert len(lines) == 8 and lines[1].startswith("ritz_value_zero,1,")

    def test_json_output(self, tmp_path):
        jpath = tmp_path / "out.json"
        assert main(["example1", "--json", str(jpath)]) == 0
        doc = json.loads(jpath.read_text())
        assert doc["ok"] is True

    def test_target_selection(self, tmp_path, capsys):
        cpath = tmp_path / "case.csv"
        assert main(["example1", "--selection", "target=-0.9",
                     "--csv", str(cpath)]) == 0
        assert "-1" in capsys.readouterr().out
        lines = cpath.read_text().splitlines()
        assert len(lines) == 2 and "verdict_refined_residual" in lines[0]

    def test_target_selection_exits_one_on_a_failed_bound(self, monkeypatch, tmp_path):
        analyze = ex.analyze_case

        def failing(*args, **kwargs):
            case = analyze(*args, **kwargs)
            case.reports[0] = dataclasses.replace(case.reports[0], holds=False)
            return case

        monkeypatch.setattr(ex, "analyze_case", failing)
        jpath = tmp_path / "out.json"
        assert main(["example1", "--selection", "target=-0.9", "--json", str(jpath)]) == 1
        assert json.loads(jpath.read_text())["ok"] is False

    def test_bad_selection_rejected(self):
        with pytest.raises(SystemExit):
            main(["example1", "--selection", "nearest"])


class TestExample2Command:
    def test_small_run_with_csv(self, tmp_path, capsys):
        cpath = tmp_path / "records.csv"
        code = main(["example2", "--sigma", "1e-4", "--seeds", "4",
                     "--seed-base", "42", "--csv", str(cpath)])
        assert code == 0
        header = cpath.read_text().splitlines()[0]
        assert "sin_refined" in header and "verdict_refined_residual" in header
        assert len(cpath.read_text().splitlines()) == 5

    def test_huge_sigma_is_a_construction_failure(self, capsys):
        # the perturbed basis overflows Gram-Schmidt's norms: exit 2, no traceback
        assert main(["example2", "--sigma", "1e308", "--seeds", "1"]) == 2
        assert "error: ConstructionFailed: " in capsys.readouterr().err

    def test_deterministic_csv(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["example2", "--seeds", "3", "--csv", str(p1)])
        main(["example2", "--seeds", "3", "--csv", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()


class TestSweepCommand:
    def test_sweep_runs(self, problem_file, tmp_path, capsys):
        jpath, cpath = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        code = main(["sweep", "--problem", str(problem_file),
                     "--eps", "1e-2,1e-3,1e-4,1e-5,1e-6",
                     "--trials", "2", "--json", str(jpath), "--csv", str(cpath)])
        assert code == 0
        doc = json.loads(jpath.read_text())
        assert abs(doc["slope_mu"] - 1.0) < 0.2
        assert "slope" in capsys.readouterr().out
        lines = cpath.read_text().splitlines()
        assert "sin_refined" in lines[0] and len(lines) == 1 + 5 * 2

    def test_csv_rows_sort_by_value_of_epsilon(self, tmp_path):
        # a sort on the text of epsilon put 0.0001, 0.001, 0.01 before 1e-05
        cpath = tmp_path / "sweep.csv"
        main(["sweep", "--problem", str(PLANTED_POLY4), "--trials", "2",
              "--csv", str(cpath)])
        with cpath.open(newline="") as fh:
            keys = [(float(row["epsilon"]), int(row["seed"])) for row in csv.DictReader(fh)]
        assert sorted({eps for eps, _ in keys}) == [1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
        assert len(keys) == 7 * 2 and keys == sorted(keys)

    def test_one_dimensional_sweep_passes(self, capsys):
        # at m = 1 the Ritz and refined residuals are one number; read from
        # two products they differed by up to 1e-7 and failed residual_ratio
        code = main(["sweep", "--problem", str(PLANTED_POLY4), "--subspace-dim", "1",
                     "--eps", "1e-6,1e-7,1e-8,1e-9,1e-10"])
        assert code == 0, capsys.readouterr().out

    def test_x_star_off_unit_by_9e_13_sweeps(self, tmp_path, capsys):
        # the problem file loads; the sweep then ended in a sin_angle traceback
        t, ref = load_problem(PLANTED_POLY4)
        path = tmp_path / "scaled.json"
        save_problem(path, t, ReferencePair(ref.lambda_star, ref.x_star * (1 + 9e-13)))
        assert main(["sweep", "--problem", str(path), "--trials", "2"]) == 0, \
            capsys.readouterr().out

    def test_subspace_dim_must_be_below_problem_dimension(self, problem_file,
                                                         capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--problem", str(problem_file), "--subspace-dim", "99"])
        assert exc.value.code == 2
        assert "subspace_dim" in capsys.readouterr().err

    def test_sweep_without_two_surviving_deviations_fails_cleanly(self, tmp_path,
                                                                  capsys):
        # every case raises DimensionGuard: the degree-4 pencil at m = 17 has
        # 68 > 64 rows, so no deviation keeps a record and no slope is fitted
        t, ref = random_planted_nep(24, 4, 3, 0.2 + 0.1j)
        path = tmp_path / "big.json"
        save_problem(path, t, ref)
        jpath = tmp_path / "sweep.json"
        code = main(["sweep", "--problem", str(path), "--subspace-dim", "17",
                     "--eps", "1e-2,1e-6", "--trials", "1", "--json", str(jpath)])
        assert code == 1
        out = capsys.readouterr().out
        assert "no slope fitted" in out
        assert out.count("[error]") == 2 and "DimensionGuard" in out
        doc = json.loads(jpath.read_text())
        assert doc["slope_mu"] is None and doc["slope_refined"] is None
        assert doc["ok"] is False

    def test_requires_problem(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--eps", "1e-2,1e-3,1e-4,1e-5,1e-6"])
        assert exc.value.code == 2
        assert "--problem" in capsys.readouterr().err

    def test_requires_reference_block(self, tmp_path, capsys):
        t, _, _ = fixture_problem()
        path = tmp_path / "noref.json"
        save_problem(path, t)  # no reference
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--problem", str(path),
                  "--eps", "1e-2,1e-3,1e-4,1e-5,1e-6"])
        assert exc.value.code == 2
        assert "reference" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "{not json", '{"n": 3}'])
    def test_unreadable_problem_is_usage_error(self, tmp_path, capsys, content):
        path = tmp_path / "problem.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--problem", str(path)])
        assert exc.value.code == 2
        assert "cannot load problem" in capsys.readouterr().err

    def test_malformed_pair_is_usage_error(self, tmp_path, capsys):
        # a one-element lambda_star ended the sweep in an IndexError traceback
        doc = json.loads(PLANTED_POLY4.read_text())
        doc["reference"]["lambda_star"] = [0.0]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--problem", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reference.lambda_star" in captured.err


class TestVerifyAllCommand:
    def test_builtin_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "reports"
        cpath = tmp_path / "flag.csv"
        code = main(["verify-all", "--out", str(out), "--csv", str(cpath)])
        assert code == 0
        assert (out / "reports.jsonl").exists()
        assert (out / "summary.csv").exists()
        assert "all applicable bounds hold" in capsys.readouterr().out
        # --csv writes the summary.csv table: a header and one row per report
        assert cpath.read_bytes() == (out / "summary.csv").read_bytes()
        assert len(cpath.read_text().splitlines()) > 1

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify-all", "--suite", "gigantic"])


class TestFlagScope:
    # --selection means something only where a Ritz value is selected, and
    # the Newton grid density is a fixed constant of the solver
    @pytest.mark.parametrize("argv", [
        ["example2", "--selection", "target=5"],
        ["verify-all", "--selection", "target=0.5"],
        ["sweep", "--grid-density", "12"],
        ["verify-all", "--grid-density", "12"],
        ["example1", "--tau-deriv", "0.05"],
        ["sweep", "--tau-deriv", "0.05"],
    ])
    def test_flag_rejected_as_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["example2", "verify-all"])
    def test_selection_config_key_rejected_as_usage_error(self, command, tmp_path,
                                                          capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"selection": "target=5"}))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)])
        assert exc.value.code == 2
        assert "selection" in capsys.readouterr().err

    def test_grid_density_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_density": 12}))
        with pytest.raises(SystemExit) as exc:
            main(["example1", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "grid_density" in capsys.readouterr().err

    def test_tau_deriv_config_key_rejected(self, tmp_path, capsys):
        # the derivative-order threshold is bounds_lab.TAU_DERIV
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau_deriv": 0.05}))
        with pytest.raises(SystemExit) as exc:
            main(["verify-all", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "tau_deriv" in capsys.readouterr().err


class TestNoSlackOverride:
    # every bound keeps the allowance its own formula defines
    @pytest.mark.parametrize("command", ["example1", "example2", "sweep", "verify-all"])
    def test_slack_flag_is_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--slack", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --slack" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["example1", "example2", "sweep", "verify-all"])
    def test_slack_config_key_is_usage_error(self, command, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"slack": 0}))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)])
        assert exc.value.code == 2
        assert "unknown config keys: ['slack']" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": 3, "sigma": 1e-4}))
        jpath = tmp_path / "out.json"
        code = main(["example2", "--config", str(cfg), "--json", str(jpath)])
        assert code == 0
        assert json.loads(jpath.read_text())["n_seeds"] == 3
        # flag overrides the file
        code = main(["example2", "--config", str(cfg), "--seeds", "2",
                     "--json", str(jpath)])
        assert code == 0
        assert json.loads(jpath.read_text())["n_seeds"] == 2

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigmaa": 1.0}))
        with pytest.raises(SystemExit) as exc:
            main(["example2", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "sigmaa" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["example1", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "config" in capsys.readouterr().err


_OUT_OF_RANGE = [
    ("example2", "sigma", -1.0),
    ("example2", "sigma", float("inf")),
    ("example2", "seeds", 0),
    ("example2", "seeds", -3),
    ("example2", "seeds", 2.5),
    ("sweep", "trials", 0),
    ("sweep", "subspace_dim", 0),
    ("example2", "seed_base", -5),
    ("sweep", "seed_base", -1),
    # a span under the 4 decades run_sweep asks for
    ("sweep", "eps", "1e-2,1e-3"),
    # a NaN target selected the first Ritz value; an infinite one raised
    ("example1", "selection", "target=nan"),
    ("example1", "selection", "target=inf"),
    ("sweep", "selection", "target=nan"),
    ("sweep", "selection", "target=1-infj"),
]


def command_line(command):
    """The subcommand, with a problem that lets a sweep run."""
    return [command] + (["--problem", str(PLANTED_POLY4)] if command == "sweep" else [])


class TestOutOfRangeInput:
    @pytest.mark.parametrize("command,key,value", _OUT_OF_RANGE)
    def test_flag_rejected_as_usage_error(self, command, key, value, capsys):
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main(command_line(command) + [flag, str(value)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert key in captured.err and captured.out == ""

    @pytest.mark.parametrize("command,key,value", _OUT_OF_RANGE)
    def test_config_value_rejected_as_usage_error(self, command, key, value,
                                                  tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit) as exc:
            main(command_line(command) + ["--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert key in captured.err and captured.out == ""

    @pytest.mark.parametrize("command,key,value", [
        ("example2", "seed_base", 1.5),
        ("sweep", "seed_base", "42"),
        # float(True) is 1.0: a JSON boolean is no number here
        ("example2", "sigma", True),
        ("example2", "sigma", False),
        ("sweep", "eps", 0.01),
        ("sweep", "eps", ["a"]),
        ("sweep", "eps", [True, 1e-6]),
        ("sweep", "eps", []),
        ("sweep", "eps", [1e-2, 1e-7, 2.0]),
        ("sweep", "eps", [1e-2, 1e-3]),
        ("example1", "selection", 5),
        ("sweep", "selection", ["oracle"]),
    ])
    def test_config_value_of_wrong_type_rejected(self, command, key, value,
                                                 tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit) as exc:
            main(command_line(command) + ["--config", str(cfg)])
        assert exc.value.code == 2
        assert key in capsys.readouterr().err

    def test_bad_selection_in_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"selection": "nearest"}))
        with pytest.raises(SystemExit) as exc:
            main(["example1", "--config", str(cfg)])
        assert exc.value.code == 2


class TestConfigKeys:
    # a bad config stops the command before it prints or writes anything
    @pytest.mark.parametrize("command", ["example1", "example2", "sweep", "verify-all"])
    @pytest.mark.parametrize("config", [{"json": 5}, {"csv": True}, {"csv": 2}],
                             ids=["json=5", "csv=true", "csv=2"])
    def test_output_path_of_wrong_type_is_usage_error(self, command, config, tmp_path,
                                                      monkeypatch, capfd):
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main(command_line(command) + ["--config", "cfg.json"])
        assert exc.value.code == 2
        out, err = capfd.readouterr()
        assert out == "" and next(iter(config)) in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command,key", [
        ("example1", "sigma"),
        ("sweep", "out"),
        ("example2", "eps"),
        ("example1", "config"),
        ("example2", "config"),
        ("sweep", "config"),
        ("verify-all", "config"),
    ])
    def test_key_that_is_no_option_of_the_subcommand_rejected(self, command, key,
                                                              tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: str(tmp_path / "x")}))
        with pytest.raises(SystemExit) as exc:
            main(command_line(command) + ["--config", str(cfg)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unknown config keys: ['{key}']" in err


def _subcommand_options() -> list[tuple[str, str]]:
    """(subcommand, config key) for each long option but --config and --help."""
    (subcommands,) = [a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
    return [(name, o[2:].replace("-", "_"))
            for name, parser in subcommands.choices.items()
            for action in parser._actions for o in action.option_strings
            if o.startswith("--") and o not in ("--config", "--help")]


_EPS5 = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
# (flag text, config value) of each option; a new option needs an entry
_OPTION_VALUES = {
    "json": ("out.json", "out.json"),
    "csv": ("out.csv", "out.csv"),
    "selection": ("target=0.3+0.2j", "target=0.3+0.2j"),
    "sigma": ("1e-3", 1e-3),
    "seeds": ("2", 2),
    "seed_base": ("7", 7),
    "problem": (str(PLANTED_POLY4), str(PLANTED_POLY4)),
    "eps": (",".join(map(str, _EPS5)), _EPS5),
    "trials": ("2", 2),
    "subspace_dim": ("1", 1),
    "out": ("reports", "reports"),
}
# keeps each run down to a few cases
_CHEAP = {
    "example2": {"seeds": ("1", 1)},
    "sweep": {"problem": _OPTION_VALUES["problem"], "trials": ("1", 1),
              "eps": _OPTION_VALUES["eps"]},
}


class TestConfigMirrorsFlags:
    @pytest.fixture(autouse=True)
    def small_suite(self, monkeypatch):
        suite = ex.builtin_suite()[:3]
        monkeypatch.setattr(ex, "builtin_suite", lambda: suite)

    def run(self, cwd, command, flags, config, monkeypatch, capsys):
        """Exit code, stdout and every file written, run in a fresh directory cwd."""
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        argv = [command]
        for key, (text, _) in flags.items():
            argv += ["--" + key.replace("_", "-"), text]
        if config:
            Path("cfg.json").write_text(json.dumps({k: v for k, (_, v) in config.items()}))
            argv += ["--config", "cfg.json"]
        code = main(argv)
        files = {p.relative_to(cwd).as_posix(): p.read_bytes()
                 for p in sorted(cwd.rglob("*")) if p.is_file() and p.name != "cfg.json"}
        return code, capsys.readouterr().out, files

    @pytest.mark.parametrize("command,key", _subcommand_options())
    def test_config_value_acts_as_its_flag(self, command, key, tmp_path, monkeypatch,
                                           capsys):
        base = {"json": _OPTION_VALUES["json"], "csv": _OPTION_VALUES["csv"],
                **_CHEAP.get(command, {})}
        given = {key: _OPTION_VALUES[key]}
        as_flags = self.run(tmp_path / "flags", command, {**base, **given}, {},
                            monkeypatch, capsys)
        as_config = self.run(tmp_path / "config", command,
                             {k: v for k, v in base.items() if k != key}, given,
                             monkeypatch, capsys)
        assert as_config == as_flags
        assert "out.json" in as_flags[2]

    @pytest.mark.parametrize("command", ["example1", "example2", "sweep", "verify-all"])
    def test_config_of_every_option_acts_as_the_flags(self, command, tmp_path,
                                                      monkeypatch, capsys):
        given = {k: _OPTION_VALUES[k] for c, k in _subcommand_options() if c == command}
        as_flags = self.run(tmp_path / "flags", command, given, {}, monkeypatch, capsys)
        as_config = self.run(tmp_path / "config", command, {}, given, monkeypatch, capsys)
        assert as_config == as_flags
