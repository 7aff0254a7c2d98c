"""Check the checks: small edits to the package that tier-1 must notice.

    python -m tests.mutants DIR                    # the catalogue below
    python -m tests.mutants DIR --delete FUNCTION  # each statement of one
                                                   # function, one at a time

The tree is copied once to ``DIR/tree``. Each mutant is applied to that
copy, tier-1 runs on it in one child process, and the file is restored
before the next mutant. The child runs under a wall-clock bound and an
address-space limit that it sets on itself with ``resource.setrlimit``,
so a mutant that loops or grows without end is stopped. Each mutant is
reported as caught, survived or timed out.

The two criterion-06 tests are deselected: they take most of tier-1's
time, and every mutant below is caught without them. A catalogue text
that does not occur exactly once in its file is an error before anything
runs, so a refactor updates the catalogue instead of skipping an entry.
Equivalent mutants, which change no answer and at most a little time,
are listed with the reason and not run.

``--delete FUNCTION`` (``name`` or ``Class.name``, in ``src/rholog``)
replaces each statement of that function by ``pass``, nested statements
included; docstrings and ``elif`` tests are left alone, since the
statements of an ``elif`` branch are deleted one by one. A deleted
statement that survives is dead or untested.

pytest does not collect this module. The exit status is 1 if a catalogue
mutant that is not equivalent survives.
"""

import argparse
import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE, MATCHING = "src/rholog/engine.py", "src/rholog/matching.py"
SECONDS, MEGABYTES = 150, 2048  # per tier-1 run: wall-clock bound, address-space limit
SLOW = [
    "tests/test_acceptance.py::test_criterion_06_matcher_completeness_vs_oracle",
    "tests/test_matching.py::TestOrderOracle::test_criterion_06_corpus",
]

# (name, file, text that occurs exactly once, replacement, what the mutant breaks)
CATALOGUE = [
    ("M1", ENGINE, "return sorted(hits + free) if hits and free",
     "return hits + free if hits and free", "merged index buckets left unsorted"),
    ("M2", ENGINE, "if goal.soft:\n                stack[goal.height] = _SPENT",
     "if goal.soft:\n                pass", "first_all's soft cut inert"),
    ("M3", ENGINE, "goal.depth >= limit", "goal.depth > limit",
     "nf allows one step more than its limit"),
    ("M4", ENGINE, "stack[goal.height] = _SPENT\n            return self._nf(",
     "return self._nf(", "nf's soft cut inert"),
    ("M5", ENGINE, "if failed == negated else None", "if failed != negated else None",
     "a guard's negation inverted"),
    ("M6", MATCHING, "kinds.count(SeqVar) <= 1", "kinds.count(SeqVar) <= 2",
     "two sequence variables taken for a single matcher"),
    ("M7", MATCHING, "if d == 0 or d < floor:", "if d < floor:",
     "a symbol pair of degree 0 accepted under a floor of 0"),
    ("M8", ENGINE, 'after = cut if name == "first_one" else ()', "after = ()",
     "first_one without its cut after the rhs"),
    ("M9", ENGINE, "step if step < degree else degree", "step",
     "an answer's degree taken from the last step"),
    ("M10", ENGINE, "and lit.positive:\n            bound.update(rest)",
     "and lit.positive:\n            pass",
     "a positive literal binds nothing in the readiness analysis"),
    ("M11", ENGINE, "else (1, matched[1])", "else (1, ONE)", "a guard's degree dropped"),
    ("M12", ENGINE, "(_Cut(height, soft=", "(_Cut(0, soft=",
     "first_one and first_all cut to the bottom of the stack"),
    ("M13", ENGINE, "n = next(self._fresh)", "n = 0", "clause hits share fresh names"),
    ("M14", ENGINE, "((positive, _Cut(len(stack), fail=True)), None, ONE)",
     "((positive,), None, ONE)", "negation without its cut"),
    ("M15", ENGINE, "if len(clauses) == 1 and clauses[0][3][1] else hits()",
     "if len(clauses) == 1 else hits()", "a lone clause always taken as single-matcher"),
    ("M16", ENGINE, "if kept:\n", "if kept and not answer:\n",
     "an answer keeps only the first step's bindings of query variables"),
    ("M17", MATCHING, "for w in range(top, -1, -1) if greedy else range(top + 1):",
     "for w in range(top, 0, -1) if greedy else range(1, top + 1):",
     "a free sequence variable never takes the empty width"),
    ("M18", ENGINE, "if len(goal.out) != 1:", "if not goal.out:",
     "map accepts an output of several terms"),
    ("M19", ENGINE, "walked.append(_instantiate(theta, goal))\n"
     "                    if isinstance(goal, _Into):\n                        break",
     "if isinstance(goal, _Into):\n                        break\n"
     "                    walked.append(_instantiate(theta, goal))",
     "a step's bindings stop before the first clause continuation, not after it"),
    ("M20", ENGINE, "if len(clauses) == 1 and clauses[0][3][1] else hits()",
     "if False else hits()",
     "a lone clause always pushes a choice point: same answers, but an nf chain's "
     "memory grows quadratically"),
    ("M21", ENGINE, "if isinstance(goal, _Into):\n                        break",
     "if False:\n                        break",
     "a step's bindings reach every pending goal: same answers, but quadratically "
     "many instantiations"),
]

# (name, file, text, replacement, why the answers cannot change)
EQUIVALENT = [
    ("E1", ENGINE, "        return Subst(mapping, _checked=True)\n",
     "        return Subst(mapping)\n",
     "fresh names are checked again as a clause's locals are renamed: each is a "
     "valid binding that is not an identity, so the same Subst results"),
]


def check_catalogue(tree):
    """Raise if an entry's text does not occur exactly once in its file."""
    for name, path, text, _, _ in CATALOGUE + EQUIVALENT:
        found = (tree / path).read_text(encoding="utf-8").count(text)
        if found != 1:
            raise SystemExit(f"{name}: its text occurs {found} times in {path}: {text!r}")


def deletions(tree, function):
    """``(label, path, mutated source)`` for each statement of ``function``."""
    found = []
    for path in sorted((tree / "src" / "rholog").glob("*.py")):
        data = path.read_bytes()
        module = ast.parse(data)
        owners = [("", module)] + [(f"{node.name}.", node) for node in module.body
                                   if isinstance(node, ast.ClassDef)]
        found += [(path, data, node) for prefix, owner in owners for node in owner.body
                  if isinstance(node, ast.FunctionDef)
                  and function in (node.name, prefix + node.name)]
    if len(found) != 1:
        raise SystemExit(f"{function!r} names {len(found)} functions in src/rholog")
    path, data, function_node = found[0]
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    mutants = []
    for node in ast.walk(function_node):
        if node is function_node or not isinstance(node, ast.stmt):
            continue
        begin = starts[node.lineno - 1] + node.col_offset  # offsets count UTF-8 bytes
        end = starts[node.end_lineno - 1] + node.end_col_offset
        docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if docstring or data[begin:begin + 4] == b"elif":
            continue
        mutated = data[:begin] + b"pass" + data[end:]
        compile(mutated, str(path), "exec")
        line = data[begin:end].decode().splitlines()[0]
        mutants.append((begin, f"line {node.lineno}: {line.strip()}", path, mutated))
    return [mutant[1:] for mutant in sorted(mutants, key=lambda mutant: mutant[0])]


def run_tier1(tree):
    """'caught', 'survived' or 'timed out' for tier-1 on ``tree``."""
    def limit():
        size = MEGABYTES * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (size, size))

    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    deselect = [f"--deselect={test}" for test in SLOW]
    child = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *deselect],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=limit, start_new_session=True,
    )
    try:
        code = child.wait(timeout=SECONDS)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return "timed out"
    return "survived" if code == 0 else "caught"


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m tests.mutants", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dir", type=Path, help="scratch directory for the copy of the tree")
    parser.add_argument("--delete", metavar="FUNCTION",
                        help="replace each statement of FUNCTION by pass, one at a time")
    args = parser.parse_args(argv)
    tree = args.dir.resolve() / "tree"
    if ROOT in tree.parents:
        raise SystemExit("DIR must lie outside the tree it copies")
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".bench_work"))

    def run(label, path, mutated):
        original = path.read_bytes()
        path.write_bytes(mutated)
        try:
            outcome = run_tier1(tree)
        finally:
            path.write_bytes(original)
        print(f"{outcome:9}  {label}", flush=True)
        return outcome

    if args.delete:
        mutants = deletions(tree, args.delete)
    else:
        check_catalogue(tree)
        for name, path, _, _, reason in EQUIVALENT:
            print(f"{'skipped':9}  {name} {path}: {reason}", flush=True)
        mutants = []
        for name, path, text, replacement, reason in CATALOGUE:
            source = (tree / path).read_text(encoding="utf-8")
            mutated = source.replace(text, replacement).encode("utf-8")
            mutants.append((f"{name} {path}: {reason}", tree / path, mutated))
    if run_tier1(tree) != "survived":
        raise SystemExit("tier-1 does not pass on the unmutated copy")
    outcomes = [run(*mutant) for mutant in mutants]
    print(", ".join(f"{outcomes.count(o)} {o}" for o in ("caught", "survived", "timed out")))
    return 1 if "survived" in outcomes and not args.delete else 0


if __name__ == "__main__":
    sys.exit(main())
