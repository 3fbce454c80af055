"""The README's API session runs as written, so a renamed or removed
public name cannot leave it stale."""

import pathlib
import re

README = pathlib.Path(__file__).parents[1] / "README.md"


def test_readme_api_session_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    # the last line is the simulated response's relative deviation
    assert 0.0 <= float(lines[-1]) <= 0.1
