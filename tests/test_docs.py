"""README's library example and batch transcript run as written, and the
names and options it lists are the ones the package has."""

import re
import shlex
import types
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


def test_readme_lists_exactly_the_public_names():
    start = README.index("The package exports these names", LIBRARY_USE)
    end = README.index("\n\n", README.index("\n* ", start))  # the end of the list
    listed = re.findall(r"`(\w+)(?:\.(\w+))?`", README[start:end])
    public = {name for name, value in vars(rholog).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    # a dotted name is an attribute of a listed name; a plain one is an export
    assert {name for name, attribute in listed if not attribute} == public
    assert [f"{name}.{attribute}" for name, attribute in listed
            if attribute and not hasattr(getattr(rholog, name, None), attribute)] == []


def test_help_prints_the_options_the_readme_lists(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    printed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
    start = README.index("## Command line\n")
    section = README[start:README.index("\n## ", start)]
    listed = re.findall(r"^\* (?:`-h`, )?`(--[a-z-]+)", section, re.M)
    assert sorted(printed) == sorted(listed)
