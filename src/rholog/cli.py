"""Command-line front end: program loading, batch queries, and a REPL.

Batch mode answers print in transcript style, one block per query::

    ?- ?(merge_all_proximals :: (a,b,d,b,c) ==> s_Ans, 0.5, Degree, Result).
    Degree = 0.6,
    Result = [s_Ans ---> (d,c)] ;
    false.

Interactively, answers appear one at a time: type ``;`` for the next
answer, anything else (or just Enter) to stop. ``false.`` marks stream
exhaustion. Exit codes: 0 on success, 1 on load errors, 2 on query
errors and on usage errors.
"""

from __future__ import annotations

import re
import sys

from .engine import Answer, EngineConfig, load_program, solve
from .errors import RhoError
from .parser import parse_program, parse_proximity_decls, parse_query
from .printer import render_answer
from .program import Query, SourceProgram
from .proximity import ProximityRelation


# UnicodeError: a file that is not UTF-8, or a stdout that cannot encode an answer
_CAUGHT = (RhoError, UnicodeError, RecursionError)


OPTIONS = {  # option: (metavar, None for a flag; least value of a number; help)
    "--help": (None, None, "show this help message and exit"),
    "--load": ("FILE", None, "program file to load (repeatable; clause order follows file order)"),
    "--prox": ("FILE", None, "proximity declaration file (prox(sym, sym, degree). lines)"),
    "--query": ("QUERY", None, "query to run in batch mode (repeatable); omit for a REPL"),
    "--answers": ("N", 1, "stop after N answers per query (N at least 1)"),
    "--nf-limit": ("N", 0, "rewrite-step limit for nf (N at least 0)"),
    "--trace": (None, None, "print selected literals and chosen clauses to stderr"),
}
USAGE = "usage: rholog " + " ".join(
    f"[{o} {m}]" if m else f"[{o}]" for o, (m, _, _) in OPTIONS.items()).replace("--help", "-h")


def _option(word):
    """None for a value, else the option ``word`` names or abbreviates and its ``=`` value."""
    name, equals, value = word.partition("=")
    if word[:2] == "-h":  # -h, -hh, ...; any other -hVALUE or -h=VALUE gives -h a value
        value = word[2:].removeprefix("=")
        name, equals = "--help", bool(value.strip("h")) or word == "-h="
    found = [option for option in OPTIONS if option.startswith(name)] if name[:2] == "--" else ()
    if len(found) == 1:
        return found[0], value if equals else None
    if word[1:] and word[0] == "-" and " " not in word and not re.match(r"-\d*\.?\d+$", word):
        return None, None


def parse_args(argv) -> dict:
    """The options in ``argv`` by name; ``--load`` and ``--query`` give lists of values."""
    def fail(message):
        print(f"{USAGE}\nrholog: error: {message}", file=sys.stderr)
        raise SystemExit(2)
    args = {option: [] for option in OPTIONS}
    unknown = []
    words = iter(argv)
    for word in words:
        option, value = _option(word) or (None, None)
        if option is None:  # everything after -- is unknown too
            unknown += [word, *words] if word == "--" else [word]
            continue
        metavar, least, _ = OPTIONS[option]
        if metavar is None and value is not None:
            fail(f"argument {option}: ignored explicit argument {value!r}")
        if option == "--help":
            print(USAGE, "", "options:", *(f"  {o} {m or ''}".ljust(18) + text
                                           for o, (m, _, text) in OPTIONS.items()), sep="\n")
            raise SystemExit(0)
        if metavar is not None and value is None:
            value = next(words, "--")  # the end of argv reads as an option
            if value[:1] == "-" and _option(value):
                fail(f"argument {option}: expected one argument")
        try:
            args[option].append(True if metavar is None else
                                value if least is None else int(value))
        except ValueError:
            fail(f"argument {option}: invalid int value: {value!r}")
    if unknown:
        fail("unrecognized arguments: " + " ".join(unknown))
    for option, (_, least, _) in OPTIONS.items():
        if least is not None and args[option] and args[option][-1] < least:
            fail(f"argument {option}: must be at least {least}")
    return {o: v if o in ("--load", "--query") else (v or [None])[-1] for o, v in args.items()}


def _from_file(path, parse, given=None):
    """``parse`` of ``given``, or else of the text of the file ``path``; an error names it."""
    try:
        if given is None:
            with open(path, encoding="utf-8") as handle:
                given = handle.read()
        return parse(given)
    except (OSError, *_CAUGHT) as exc:
        raise RhoError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _load_session(args):
    programs = [_from_file(path, parse_program) for path in args["--load"]]
    try:
        db = load_program(SourceProgram(tuple(c for p in programs for c in p.clauses)))
    except _CAUGHT:
        # clauses are checked in order, so the first file whose clauses do not
        # load on their own holds the clause that failed
        for path, program in zip(args["--load"], programs):
            _from_file(path, load_program, program)
        raise
    prox = args["--prox"]
    return db, ProximityRelation(_from_file(prox, parse_proximity_decls) if prox else ())


def _answer_lines(query: Query, answer: Answer) -> list:
    degree = [] if query.degree_var is None else [f"{query.degree_var} = {answer.degree:f},"]
    return degree + [f"{query.result_var} = {render_answer(answer)}"]


def run_batch(queries, db, relation, config, limit=None) -> int:
    """Run queries to exhaustion (or to ``limit`` answers); 0 iff no errors."""
    status = 0
    for text in map(str.strip, queries):
        print(f"?- {text}")
        try:
            query = parse_query(text)
            for n, answer in enumerate(solve(db, query, relation, config), 1):
                print("\n".join(_answer_lines(query, answer)) + " ;")
                if n == limit:
                    break
            else:
                print("false.")
        except _CAUGHT as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
        print()
    return status


def run_repl(db, relation, config, limit) -> int:
    print("rholog. Queries look like ?(st :: lhs ==> rhs, Result). "
          "Type halt. to quit.")
    try:
        fd = sys.stdin.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor, e.g. io.StringIO
        return _session(db, relation, config, limit, input)
    # input() holds a Ctrl-C that lands between its prompt and its read until a line comes
    import os, select, signal  # here, so that batch mode does not import them
    wake, woken = os.pipe()
    os.set_blocking(woken, False)
    previous = signal.set_wakeup_fd(woken)  # each signal writes a byte to woken

    def read(prompt):  # a line, as input(prompt) reads it, and nothing past its newline
        print(prompt, end="", flush=True)
        line = b""
        while line[-1:] != b"\n":
            if wake in select.select([fd, wake], [], [])[0]:
                os.read(wake, 512)  # the signal's Python handler has raised or raises next
            elif (byte := os.read(fd, 1)) or line:
                line += byte or b"\n"
            else:
                raise EOFError
        return line[:-1].decode(sys.stdin.encoding, sys.stdin.errors)
    try:
        return _session(db, relation, config, limit, read)
    finally:
        signal.set_wakeup_fd(previous)
        os.close(wake)
        os.close(woken)


def _session(db, relation, config, limit, read) -> int:
    while True:
        try:
            line = read("?- ").strip()
            if line in ("halt.", "quit.", "exit."):
                return 0
            if line:
                _repl_answers(parse_query(line), db, relation, config, limit, read)
        except EOFError:
            print()
            return 0
        except _CAUGHT as exc:
            print(f"error: {exc}", file=sys.stderr)
        except KeyboardInterrupt:  # Ctrl-C stops the query or the prompt, not the session
            print("interrupted", file=sys.stderr)


def _repl_answers(query, db, relation, config, limit, read) -> None:
    for n, answer in enumerate(solve(db, query, relation, config), 1):
        print("\n".join(_answer_lines(query, answer)))
        try:
            more = n != limit and read("").strip() == ";"
        except EOFError:
            return
        if not more:
            print(".")
            return
    print("false.")


def main(argv=None) -> int:
    # the parser, the printer and term hashing recurse over deep terms;
    # give them room (ROADMAP item 3 makes them iterative)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        try:
            db, relation = _load_session(args)
        except _CAUGHT as exc:
            print(f"load error: {exc}", file=sys.stderr)
            return 1
        trace_sink = (lambda line: sys.stderr.write(line + "\n")) if args["--trace"] else None
        config = EngineConfig(nf_step_limit=args["--nf-limit"], trace_sink=trace_sink)
        if args["--query"]:
            return run_batch(args["--query"], db, relation, config, args["--answers"])
        return run_repl(db, relation, config, args["--answers"])
    finally:
        sys.setrecursionlimit(limit)


if __name__ == "__main__":
    sys.exit(main())
