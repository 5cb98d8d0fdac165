import json

import pytest

import nepritz.experiments as ex
from nepritz.cli import main
from nepritz.experiments import fixture_problem, simple_rate_instance
from nepritz.nep_model import save_problem


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

    def test_bad_selection_rejected(self):
        with pytest.raises(SystemExit):
            main(["example1", "--selection", "nearest"])

    def test_target_selection_passes_tau_deriv(self, monkeypatch):
        seen = []
        real = ex.analyze_case

        def spy(*args, **kwargs):
            seen.append(kwargs.get("tau_deriv"))
            return real(*args, **kwargs)

        monkeypatch.setattr(ex, "analyze_case", spy)
        assert main(["example1", "--selection", "target=-0.9",
                     "--tau-deriv", "0.05"]) == 0
        assert seen == [0.05]


class TestExample2Command:
    def test_small_run_with_csv(self, tmp_path, capsys):
        cpath = tmp_path / "records.csv"
        code = main(["example2", "--sigma", "1e-4", "--seeds", "4",
                     "--seed-base", "42", "--csv", str(cpath)])
        assert code == 0
        header = cpath.read_text().splitlines()[0]
        assert "sin_refined" in header and "verdict_refined_residual" in header
        assert len(cpath.read_text().splitlines()) == 5

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

    def test_subspace_dim_must_be_below_problem_dimension(self, problem_file,
                                                         capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--problem", str(problem_file), "--subspace-dim", "99"])
        assert exc.value.code == 2
        assert "subspace_dim" in capsys.readouterr().err

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
    ("example1", "tau_deriv", 0.0),
    ("example1", "tau_deriv", -1.0),
    ("verify-all", "tau_deriv", 0.0),
    ("example2", "sigma", -1.0),
    ("example2", "sigma", float("inf")),
    ("example2", "seeds", 0),
    ("example2", "seeds", -3),
    ("example2", "seeds", 2.5),
    ("sweep", "trials", 0),
    ("sweep", "subspace_dim", 0),
    ("example1", "slack", -2.0),
    ("example2", "slack", float("nan")),
    ("verify-all", "slack", float("inf")),
    ("sweep", "slack", -1e-3),
    ("example2", "seed_base", -5),
    ("sweep", "seed_base", -1),
]


class TestOutOfRangeInput:
    @pytest.mark.parametrize("command,key,value", _OUT_OF_RANGE)
    def test_flag_rejected_as_usage_error(self, command, key, value, capsys):
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main([command, flag, str(value)])
        assert exc.value.code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", _OUT_OF_RANGE)
    def test_config_value_rejected_as_usage_error(self, command, key, value,
                                                  tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)])
        assert exc.value.code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("example1", "slack", "loose"),
        ("verify-all", "slack", [0.1]),
        ("example2", "seed_base", 1.5),
        ("sweep", "seed_base", "42"),
    ])
    def test_config_value_of_wrong_type_rejected(self, command, key, value,
                                                 tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)])
        assert exc.value.code == 2
        assert key in capsys.readouterr().err

    def test_bad_selection_in_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"selection": "nearest"}))
        with pytest.raises(SystemExit) as exc:
            main(["example1", "--config", str(cfg)])
        assert exc.value.code == 2
