"""The README's API session runs as written, so a renamed or removed
public name cannot leave it stale."""

import importlib
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


def test_module_table_names_exist():
    # every backticked name in a row of the library tour resolves in that
    # row's module (an expression such as `CAP // 2` by its leading name)
    rows = re.findall(r"^\| `(respsim\.\w+)` \|(.*)\|$", README.read_text(),
                      re.M)
    assert len(rows) == 7
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for text in re.findall(r"`([^`]+)`", contents):
            obj = module
            for part in re.match(r"[A-Za-z_][\w.]*", text).group().split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                missing.append(f"{module_name}: {text}")
    assert missing == []
