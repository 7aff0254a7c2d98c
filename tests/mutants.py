"""Check the checks: small edits to the package that tier-1 must notice.

    python -m tests.mutants DIR                    # the catalogue below
    python -m tests.mutants DIR --delete FUNCTION  # each statement of one
                                                   # function, one at a time
    python -m tests.mutants DIR --delete engine.py # the same for every
                                                   # function of a module

The tree is copied once to ``DIR/tree``. Each mutant is applied to that
copy, tier-1 runs on it in one child process, and the file is restored
before the next mutant. The child runs under a wall-clock bound and an
address-space limit that it sets on itself with ``resource.setrlimit``,
so a mutant that loops or grows without end is stopped. Each mutant is
reported as caught, survived or timed out, or as invalid if it does not
compile (a deleted statement can leave a ``nonlocal`` with no binding).
If tier-1 does not pass on the unmutated copy, nothing runs, and the last
lines of pytest's output show why.

The two criterion-06 tests are deselected: they take most of tier-1's
time, and every mutant below is caught without them. A catalogue text
that does not occur exactly once in its file is an error before anything
runs, so a refactor updates the catalogue instead of skipping an entry.
Equivalent mutants, which change no answer and at most a little time,
are listed with the reason and not run.

``--delete FUNCTION`` (``name`` or ``Class.name``, in ``src/rholog``)
replaces each statement of that function by ``pass``, nested statements
included; docstrings and ``elif`` tests are left alone, since the
statements of an ``elif`` branch are deleted one by one. ``--delete``
with a module's file name (``engine.py``) does this for every function and
method of the module, after one run of tier-1 on the unmutated copy. A
deleted statement that survives is dead or untested, unless it is listed
in ``EQUIVALENT_DELETIONS`` with the reason; a listed statement that does
not occur exactly once in its function is an error before anything runs.

pytest does not collect this module. The exit status is 1 if a mutant
that is not equivalent survives.
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
PROXIMITY = "src/rholog/proximity.py"
SECONDS, MEGABYTES = 150, 2048  # per tier-1 run: wall-clock bound, address-space limit
TAIL = 40  # lines of pytest's output shown when the unmutated copy fails
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
    ("M11", ENGINE, "return (n, 1, got) if got", "return (n, 1, ONE) if got",
     "a guard's degree dropped"),
    ("M12", ENGINE, "(_Cut(height, soft=", "(_Cut(0, soft=",
     "first_one and first_all cut to the bottom of the stack"),
    ("M13", ENGINE, "return next(self._fresh) if local_vars", "return 0 if local_vars",
     "clause hits share fresh names"),
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
    ("M22", ENGINE, "iter_vars(head[:at]) else len(head)", "iter_vars(head[:at]) else at",
     "a guard tested right after its variables though the rest of the head can fail"),
    ("M23", MATCHING,
     "if j != len(subject):\n                return\n            if more is None:\n"
     "                if i == at and (degree := test(subst)) is None:\n",
     "if i == at and more is None and (degree := test(subst)) is None:\n"
     "                return\n            if j != len(subject):\n                return\n"
     "            if more is None:\n                if False:\n",
     "a guard tested at the end of the head before the subject is used up"),
    ("M24", ENGINE, "if not known or not head._ground:", "if not known:",
     "the floor of a guard's strategy kept though it reads a head variable"),
    ("M25", PROXIMITY, "if d == 0 or d < floor:", "if d < floor:",
     "the ground walk accepts a symbol pair of degree 0 under a floor of 0"),
    ("M26", ENGINE, "if guard is None:\n        return len(head)",
     "if guard is None:\n        return len(head) - 1",
     "an unguarded clause reported before its head matches"),
    ("M27", MATCHING, 'range({hi}, {pos} - 1, -1):" if any(',
     'range({hi}, {pos} - 1, -1):" if not any(',
     "compiled heads: the first sequence variable takes the longest width first, later ones "
     "the shortest"),
    ("M28", MATCHING, 'hi += f" - {len(items) - i - len(seqs)}"',
     'hi += f" - {len(items) - i - len(seqs) - 1}"',
     "compiled heads: a sequence variable leaves one item too few for the rest of its level"),
    ("M29", MATCHING, "if i == at and more is None:\n            put(",
     "if i == at + 1 and more is None:\n            put(",
     "compiled heads: the test placed one item late"),
    ("M30", ENGINE, "_proximity_walk(self.rel, right, left, floor)",
     "_proximity_walk(self.rel, right, left, floor * 0)",
     "a prox guard walked under a floor of 0, not its own floor"),
]

# (name, file, text, replacement, why the answers cannot change)
EQUIVALENT = []


# (function, first line of a statement in it, why deleting the statement changes
# no answer): ``--delete`` lists these with the reason and does not run them
EQUIVALENT_DELETIONS = [
    ("_load_session", "raise",
     "load_program checks each clause on its own, so whenever the whole program "
     "fails to load, some file fails alone, and that file's error is raised first"),
    ("_Parser.skip", "return False",
     "every caller tests the result for truth, and None is false"),
    ("_reader", "if hedge and all(isinstance(x, IndVar) for x in hedge):",
     "subst_hedge reads a hedge of individual variables as the item getter does, only slower"),
    ("_reader", "return get if len(hedge) > 1 else lambda d: (get(d),)",
     "subst_hedge reads a hedge of individual variables as the item getter does, only slower"),
]


def check_catalogue(tree):
    """Raise if an entry's text does not occur exactly once in its file."""
    for name, path, text, _, _ in CATALOGUE + EQUIVALENT:
        found = (tree / path).read_text(encoding="utf-8").count(text)
        if found != 1:
            raise SystemExit(f"{name}: its text occurs {found} times in {path}: {text!r}")


def deletions(tree, target):
    """``(label, path, mutated source, reason)`` for each statement of the
    function ``target`` names, or of every function of the module file
    ``target``; ``reason`` is None unless the deletion is equivalent, and the
    mutated source None if it does not compile."""
    functions, statements = [], []
    for path in sorted((tree / "src" / "rholog").glob("*.py")):
        data = path.read_bytes()
        module = ast.parse(data)
        owners = [("", module)] + [(f"{node.name}.", node) for node in module.body
                                   if isinstance(node, ast.ClassDef)]
        starts = [0]
        for line in data.splitlines(keepends=True):
            starts.append(starts[-1] + len(line))
        for prefix, owner in owners:
            for function in owner.body:
                if not isinstance(function, ast.FunctionDef):
                    continue
                name = prefix + function.name
                if target in (path.name, function.name, name):
                    functions.append((path, name))
                for node in ast.walk(function):
                    if node is function or not isinstance(node, ast.stmt):
                        continue
                    begin = starts[node.lineno - 1] + node.col_offset  # UTF-8 byte offsets
                    end = starts[node.end_lineno - 1] + node.end_col_offset
                    docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    if not (docstring or data[begin:begin + 4] == b"elif"):
                        line = data[begin:end].decode().splitlines()[0].strip()
                        statements.append((name, line, node.lineno, path, data, begin, end))
    if target.endswith(".py") and not (tree / "src" / "rholog" / target).is_file():
        raise SystemExit(f"{target!r} names no module in src/rholog")
    if len(functions) != 1 and not target.endswith(".py"):
        raise SystemExit(f"{target!r} names {len(functions)} functions in src/rholog")
    reasons = {}
    for function, line, reason in EQUIVALENT_DELETIONS:
        found = sum((name, text) == (function, line) for name, text, *_ in statements)
        if found != 1:
            raise SystemExit(f"{function} has {found} statements {line!r}, not 1")
        reasons[function, line] = reason
    mutants = []
    for name, line, lineno, path, data, begin, end in statements:
        if (path, name) in functions:
            mutated = data[:begin] + b"pass" + data[end:]
            try:
                compile(mutated, str(path), "exec")
            except SyntaxError:
                mutated = None
            mutants.append((path, begin, f"{name} line {lineno}: {line}", path, mutated,
                            reasons.get((name, line))))
    return [mutant[2:] for mutant in sorted(mutants, key=lambda mutant: mutant[:2])]


def run_tier1(tree):
    """'caught', 'survived' or 'timed out' for tier-1 on ``tree``, and the last
    lines of pytest's output."""
    def limit():
        size = MEGABYTES * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (size, size))

    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    deselect = [f"--deselect={test}" for test in SLOW]
    child = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *deselect],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        preexec_fn=limit, start_new_session=True,
    )
    try:
        output = child.communicate(timeout=SECONDS)[0]
        outcome = "survived" if child.returncode == 0 else "caught"
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        output, outcome = child.communicate()[0], "timed out"
    return outcome, "\n".join(output.decode(errors="replace").splitlines()[-TAIL:])


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m tests.mutants", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dir", type=Path, help="scratch directory for the copy of the tree")
    parser.add_argument("--delete", metavar="FUNCTION",
                        help="replace each statement of FUNCTION, or of each function "
                             "of the module file FUNCTION, by pass, one at a time")
    args = parser.parse_args(argv)
    tree = args.dir.resolve() / "tree"
    if ROOT in tree.parents:
        raise SystemExit("DIR must lie outside the tree it copies")
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".bench_work"))

    def run(label, path, mutated, reason=None):
        if reason is not None:
            print(f"{'skipped':9}  {label}: {reason}", flush=True)
            return "skipped"
        if mutated is None:
            print(f"{'invalid':9}  {label}: the mutant does not compile", flush=True)
            return "invalid"
        original = path.read_bytes()
        path.write_bytes(mutated)
        try:
            outcome = run_tier1(tree)[0]
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
    outcome, output = run_tier1(tree)
    if outcome != "survived":
        raise SystemExit(f"tier-1 does not pass on the unmutated copy ({outcome}):\n{output}")
    outcomes = [run(*mutant) for mutant in mutants]
    print(", ".join(f"{outcomes.count(o)} {o}"
                    for o in ("caught", "survived", "timed out", "skipped", "invalid")))
    return 1 if "survived" in outcomes else 0


if __name__ == "__main__":
    sys.exit(main())
