"""Command-line front end: program loading, batch queries, and a REPL.

Batch mode answers print in transcript style, one block per query::

    ?- ?(merge_all_proximals :: (a,b,d,b,c) ==> s_Ans, 0.5, Degree, Result).
    Degree = 0.6,
    Result = [s_Ans ---> (d,c)] ;
    false.

Interactively, answers appear one at a time: type ``;`` for the next
answer, anything else (or just Enter) to stop. ``false.`` marks stream
exhaustion. Exit codes: 0 on success, 1 on load errors, 2 on query
errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .engine import Answer, EngineConfig, load_program, solve
from .errors import RhoError
from .parser import parse_program, parse_proximity_decls, parse_query
from .printer import render_answer
from .program import Query, SourceProgram
from .proximity import ProximityRelation


# UnicodeError: a file that is not UTF-8, or a stdout that cannot encode an answer
_CAUGHT = (RhoError, UnicodeError, RecursionError)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rholog",
        description="Interpreter for a strategy-based transformation language "
        "over unranked terms.",
    )
    ap.add_argument(
        "--load",
        metavar="FILE",
        action="append",
        default=[],
        help="program file to load (repeatable; clause order follows file order)",
    )
    ap.add_argument(
        "--prox",
        metavar="FILE",
        help="proximity declaration file (prox(sym, sym, degree). lines)",
    )
    ap.add_argument(
        "--query",
        metavar="QUERY",
        action="append",
        default=[],
        help="query to run in batch mode (repeatable); omit for a REPL",
    )
    ap.add_argument(
        "--answers", metavar="N", type=int, help="stop after N answers per query"
    )
    ap.add_argument(
        "--nf-limit", metavar="N", type=int, help="rewrite-step limit for nf"
    )
    ap.add_argument(
        "--trace",
        action="store_true",
        help="print selected literals and chosen clauses to stderr",
    )
    return ap


def _from_file(path, parse):
    """``parse`` of the text of the file ``path``; an error names the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return parse(handle.read())
    except OSError as exc:
        raise RhoError(f"{path}: {exc.strerror}") from exc
    except _CAUGHT as exc:
        raise RhoError(f"{path}: {exc}") from exc


def _load_session(args):
    clauses = [c for path in args.load for c in _from_file(path, parse_program).clauses]
    try:
        db = load_program(SourceProgram(tuple(clauses)))
    except _CAUGHT:
        # clauses are checked in order, so the first file that does not load
        # on its own holds the clause that failed
        for path in args.load:
            _from_file(path, lambda text: load_program(parse_program(text)))
        raise
    relation = ProximityRelation()
    if args.prox:
        relation = ProximityRelation(_from_file(args.prox, parse_proximity_decls))
    return db, relation


def _answer_lines(query: Query, answer: Answer) -> list:
    lines = []
    if query.degree_var is not None:
        lines.append(f"{query.degree_var} = {answer.degree:f},")
    lines.append(f"{query.result_var} = {render_answer(answer)}")
    return lines


def run_batch(queries, db, relation, config, limit=None) -> int:
    """Run queries to exhaustion (or to ``limit`` answers); 0 iff no errors."""
    status = 0
    for text in queries:
        print(f"?- {text.strip()}")
        try:
            query = parse_query(text)
            for n, answer in enumerate(solve(db, query, relation, config), 1):
                lines = _answer_lines(query, answer)
                lines[-1] += " ;"
                print("\n".join(lines))
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
    while True:
        try:
            line = input("?- ")
        except EOFError:
            print()
            return 0
        line = line.strip()
        if not line:
            continue
        if line in ("halt.", "quit.", "exit."):
            return 0
        try:
            query = parse_query(line)
        except _CAUGHT as exc:
            print(f"error: {exc}", file=sys.stderr)
            continue
        try:
            _repl_answers(query, db, relation, config, limit)
        except _CAUGHT as exc:
            print(f"error: {exc}", file=sys.stderr)


def _repl_answers(query, db, relation, config, limit) -> None:
    for n, answer in enumerate(solve(db, query, relation, config), 1):
        print("\n".join(_answer_lines(query, answer)))
        if n == limit:
            print(".")
            return
        try:
            response = input("")
        except EOFError:
            return
        if response.strip() != ";":
            print(".")
            return
    print("false.")


def main(argv=None) -> int:
    # the parser, the printer and term hashing recurse over deep terms;
    # give them room (ROADMAP item 3 makes them iterative)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        ap = build_arg_parser()
        args = ap.parse_args(argv)
        if args.answers is not None and args.answers < 1:
            ap.error("argument --answers: must be at least 1")
        if args.nf_limit is not None and args.nf_limit < 0:
            ap.error("argument --nf-limit: must be at least 0")
        try:
            db, relation = _load_session(args)
        except _CAUGHT as exc:
            print(f"load error: {exc}", file=sys.stderr)
            return 1
        trace_sink = functools.partial(print, file=sys.stderr) if args.trace else None
        config = EngineConfig(nf_step_limit=args.nf_limit, trace_sink=trace_sink)
        if args.query:
            return run_batch(args.query, db, relation, config, args.answers)
        return run_repl(db, relation, config, args.answers)
    finally:
        sys.setrecursionlimit(limit)


if __name__ == "__main__":
    sys.exit(main())
