import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    text = README.read_text()
    section = text.split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs(capsys):
    namespace = {}
    exec(compile(quick_start_code(), str(README), "exec"), namespace)
    assert namespace["ritz"].nonunique_flag
    assert namespace["refined"].sigma_hat_1 <= 1e-12
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.endswith("True") for line in lines)
