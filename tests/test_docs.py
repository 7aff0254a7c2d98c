"""README's library example and batch transcript run as written, and the
names and options it lists exist."""

import re
import shlex
from pathlib import Path

import pytest

import rholog
from rholog.cli import main

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


def test_batch_transcript_matches_the_command_line(capsys, monkeypatch):
    found = re.compile(r"```\n\$ (rholog [^`]*?--query '[^']*')\n([^`]*)```").search(README)
    command, printed = found.groups()
    assert printed.count("\n") == 4
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command.replace("\\\n", " "))[1:]) == 0
    # batch mode ends each query's block with an empty line
    assert capsys.readouterr().out == printed + "\n"


def test_lower_level_entry_points_exist():
    start = README.index("Lower-level entry points", LIBRARY_USE)
    paragraph = README[start:README.index("\n\n", start)]
    names = re.findall(r"`(\w+)`", paragraph)
    assert {"match_hedge", "Subst", "apply_term", "apply_hedge"} <= set(names)
    missing = [name for name in names
               if not hasattr(rholog, name) and not hasattr(rholog.Subst, name)]
    assert missing == []


def test_help_prints_the_options_the_readme_lists(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    printed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
    start = README.index("## Command line\n")
    section = README[start:README.index("\n## ", start)]
    listed = re.findall(r"^\* (?:`-h`, )?`(--[a-z-]+)", section, re.M)
    assert sorted(printed) == sorted(listed)
