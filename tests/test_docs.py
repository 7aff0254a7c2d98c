"""README's library example runs as written, and the names it lists exist."""

import re
from pathlib import Path

import rholog

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
LIBRARY_USE = README.index("## Library use\n")


def test_library_example_runs_from_the_repo_root(capsys, monkeypatch):
    found = re.compile(r"```python\n(.*?)```", re.S).search(README, LIBRARY_USE)
    # padded so that a traceback names the README's own line numbers
    padding = "\n" * README.count("\n", 0, found.start(1))
    monkeypatch.chdir(ROOT)
    exec(compile(padding + found.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out == "{s_Ans -> (d,c)} 0.6\n"


def test_lower_level_entry_points_exist():
    start = README.index("Lower-level entry points", LIBRARY_USE)
    paragraph = README[start:README.index("\n\n", start)]
    names = re.findall(r"`(\w+)`", paragraph)
    assert {"match_hedge", "Subst", "apply_term", "apply_hedge"} <= set(names)
    missing = [name for name in names
               if not hasattr(rholog, name) and not hasattr(rholog.Subst, name)]
    assert missing == []
