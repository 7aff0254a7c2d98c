"""Lexer and recursive-descent parser.

Input formats (full EBNF in docs/grammar.md):

* programs: clauses terminated by ``.``, with ``%`` line comments;
* queries: ``?(Goal, Result).`` for exact answers, or
  ``?(Goal, Threshold, Degree, Result).`` for threshold answers, where
  the markers are capitalized identifiers;
* proximity declarations: lines of ``prox(sym, sym, degree).``.

The text is scanned once, by one regular expression, into token texts
and their start offsets. Identifier tokens are runs of letters, digits and
``_`` (``\\w+``); one made only of decimal digits is a number, and so is
``digits.digits``; a token's line and column are worked out from its
offset only for a ParseError.
Names starting with ``i_``, ``s_``, ``f_``, ``c_`` are variables of the
corresponding kind, and the comparison operators ``=<  <  >  >=`` double
as function symbols so they can be passed as strategy arguments.
Numerals, thresholds and degrees are read and range-checked by the same
functions as in the engine: ``terms.numeral_value``,
``proximity.check_threshold`` and ``proximity.check_degree``.
"""

from __future__ import annotations

import re

from .errors import ParseError, UnsupportedFeatureError
from .program import (
    NotGoal,
    PredAtom,
    PredClause,
    Query,
    RhoAtom,
    RhoClause,
    SourceProgram,
    StrategyAbbrev,
)
from .proximity import check_degree, check_threshold
from .terms import (
    HOLE,
    Compound,
    CtxApply,
    CtxVar,
    FunVar,
    IndVar,
    SeqVar,
    Sym,
    numeral_value,
)

_COMPARE_OPS = ("=<", "<", ">", ">=")

# A number is tried before a word so that ``1.5`` is one token; longer
# punctuation comes first so that the alternation munches maximally.
# ``\w`` is ``str.isalnum()`` plus ``_``; a word is a number when it is
# all decimal digits.
_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\n]+|%[^\n]*)"
    r"|(?P<num>\d+\.\d+)"
    r"|(?P<word>\w+)"
    r"|(?P<punct>=\\=>|==>|>=|=<|::|:-|:=|[()?,.<>])"
)


# The first characters of punctuation; every other token starts with ``\w``.
# ``word[:1] in _PUNCT_START`` holds for the end of input too, as "" is in it.
_PUNCT_START = "=><:()?,."


def _is_num(word: str) -> bool:
    """Whether a token text is a number: decimal digits, maybe ``.digits``."""
    whole, dot, fraction = word.partition(".")
    return whole.isdecimal() and (not dot or fraction.isdecimal())


def _line_col(text: str, offset: int) -> tuple:
    """The 1-based line and column of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _scan(text: str) -> tuple:
    """The token texts of ``text`` and their start offsets, each list ending
    with the end of input, ``""`` at ``len(text)``. A character that starts
    no token is a ParseError."""
    texts, starts, end = [], [], 0
    for m in _TOKEN.finditer(text):
        start = m.start()
        if start != end:  # the match skipped the character at ``end``
            break
        end = m.end()
        if m.lastgroup != "skip":
            texts.append(m.group())
            starts.append(start)
    if end < len(text):
        raise ParseError(f"unexpected character {text[end]!r}", *_line_col(text, end))
    texts.append("")
    starts.append(end)
    return texts, starts


def _as_literal(parsed):
    """A parsed literal as it is, a bare compound as a predicate atom, or
    None for any other term."""
    if isinstance(parsed, Compound):
        return PredAtom(parsed.head, parsed.args)
    return parsed if isinstance(parsed, (RhoAtom, PredAtom, NotGoal)) else None


class _Parser:
    """Recursive descent over the token texts; ``pos`` indexes them, and a
    token's line and column are worked out only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.texts, self.starts = _scan(text)
        self.pos = 0

    def peek(self, offset=0) -> str:
        return self.texts[self.pos + offset]

    def skip(self, text) -> bool:
        """Whether the current token is ``text``, which is then consumed."""
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect_punct(self, text) -> None:
        if self.texts[self.pos] != text:
            self.unexpected(self.pos, repr(text))
        self.pos += 1

    def expect_eof(self) -> None:
        word = self.texts[self.pos]
        if word:
            self.fail(f"unexpected trailing {word!r}", expected=("end of input",))

    def fail(self, message, at=None, expected=(), error=ParseError):
        """Raise ``error`` at token ``at``, by default the current one."""
        offset = self.starts[self.pos if at is None else at]
        raise error(message, *_line_col(self.text, offset), expected)

    def unexpected(self, at, *expected):
        word = self.texts[at]
        self.fail(f"unexpected {repr(word) if word else 'end of input'}", at, expected)

    def _make(self, ctor, at):
        """``ctor`` of the text of token ``at``, with a rejected name reported there."""
        try:
            return ctor(self.texts[at])
        except ValueError as exc:
            self.fail(str(exc), at)

    # -- terms and sequences ------------------------------------------------

    def term(self):
        at = self.pos
        word = self.texts[at]
        if word in _COMPARE_OPS:
            self.pos += 1
            head = Sym(word)
        elif word[:1] in _PUNCT_START:
            self.unexpected(at, "a term")
        elif _is_num(word):
            self.pos += 1
            return Compound(Sym(word))
        else:
            if word == "hole":
                self.pos += 1
                return HOLE
            if word == "eps":
                self.fail("eps is the empty sequence, not a term")
            if word.startswith("s_"):
                self.fail("sequence variable not allowed here (only inside a sequence)")
            self.pos += 1
            if word.startswith("i_"):
                return self._make(IndVar, at)
            if word.startswith("c_"):
                self.expect_punct("(")
                arg = self.term()
                self.expect_punct(")")
                return CtxApply(self._make(CtxVar, at), arg)
            head = self._make(FunVar if word.startswith("f_") else Sym, at)
        return Compound(head, self.sequence() if self.texts[self.pos] == "(" else ())

    def sequence(self) -> tuple:
        """``eps``, a sequence variable, ``( [items] )`` or a term, where the
        items are sequences separated by commas. Items splice into the
        enclosing sequence, so the result is flat."""
        word = self.texts[self.pos]
        if word == "eps":
            self.pos += 1
            return ()
        if word.startswith("s_"):
            self.pos += 1
            return (self._make(SeqVar, self.pos - 1),)
        if not self.skip("("):
            return (self.term(),)
        items = []
        if self.texts[self.pos] != ")":
            items.extend(self.sequence())
            while self.skip(","):
                items.extend(self.sequence())
        self.expect_punct(")")
        return tuple(items)

    # -- literals, clauses, programs ----------------------------------------

    def literal(self):
        lit = _as_literal(self.literal_or_term())
        if lit is None:
            self.fail("expected a literal")
        return lit

    def literal_or_term(self):
        """Parse a literal if an atom shape follows, otherwise a bare term."""
        if self.peek() == "not" and self.peek(1) == "(":
            self.pos += 2
            inner = self.literal()
            self.expect_punct(")")
            return NotGoal(inner)
        t = self.term()
        if self.skip("::"):
            lhs, arrow = self.sequence(), self.peek()
            if arrow not in ("==>", "=\\=>"):
                self.fail("expected an arrow after the left-hand side",
                          expected=("'==>'", "'=\\=>'"))
            self.pos += 1
            return RhoAtom(t, lhs, self.sequence(), arrow == "==>")
        op = self.peek()
        if op in _COMPARE_OPS:
            self.pos += 1
            return PredAtom(Sym(op), (t, self.term()))
        return t

    def body(self) -> tuple:
        """The rest of a clause: an optional ``:- literal, ...`` and the ``.``."""
        literals = [self.literal()] if self.skip(":-") else []
        while literals and self.skip(","):
            literals.append(self.literal())
        self.expect_punct(".")
        return tuple(literals)

    def clause(self):
        head = self.term()
        if self.skip("::"):
            lhs = self.sequence()
            if self.peek() == "=\\=>":
                self.fail("a clause head cannot be negated")
            self.expect_punct("==>")
            rhs = self.sequence()
            if self.peek() == "where":
                self.fail("'where' constraints are not supported", error=UnsupportedFeatureError)
            return RhoClause(head, lhs, rhs, self.body())
        if self.skip(":="):
            rhs = self.term()
            self.expect_punct(".")
            return StrategyAbbrev(head, rhs)
        if self.peek() in (":-", "."):
            if not (isinstance(head, Compound) and isinstance(head.head, Sym)):
                self.fail("a predicate clause head must be symbol-headed")
            return PredClause(head.head.name, head.args, self.body())
        self.unexpected(self.pos, "'::'", "':='", "':-'", "'.'")

    def program(self) -> SourceProgram:
        clauses = []
        while self.peek():
            clauses.append(self.clause())
        return SourceProgram(tuple(clauses))

    # -- queries -------------------------------------------------------------

    def query(self) -> Query:
        self.expect_punct("?")
        self.expect_punct("(")
        last, entries = self.pos, [self.literal_or_term()]
        while self.skip(","):
            last = self.pos
            entries.append(self.literal_or_term())
        self.expect_punct(")")
        self.expect_punct(".")
        self.expect_eof()
        return self._classify_query(entries, last)

    @staticmethod
    def _marker_name(entry):
        if (
            isinstance(entry, Compound)
            and isinstance(entry.head, Sym)
            and not entry.args
            and entry.head.name[0].isupper()
        ):
            return entry.head.name
        return None

    def _classify_query(self, entries, last) -> Query:
        """The query of the parsed ``entries``, the last starting at token ``last``."""
        result_var = self._marker_name(entries[-1])
        if result_var is None:
            self.fail("a query must end with a result variable "
                      "(a capitalized identifier)")
        threshold = None
        degree_var = None
        goal_entries = entries[:-1]
        if len(entries) >= 3:
            maybe_degree = self._marker_name(entries[-2])
            maybe_threshold = numeral_value(entries[-3])
            if maybe_degree is not None and maybe_threshold is not None:
                threshold = check_threshold(maybe_threshold)
                if maybe_degree == result_var:
                    self.fail(f"marker {result_var} names both the degree and the result",
                              last)
                degree_var = maybe_degree
                goal_entries = entries[:-3]
        goal = []
        for entry in goal_entries:
            if self._marker_name(entry) is not None:
                self.fail(f"unexpected variable {entry!r} in the goal")
            lit = _as_literal(entry)
            if lit is None:
                self.fail(f"not a literal: {entry!r}")
            goal.append(lit)
        if not goal:
            self.fail("query has no goal literals")
        return Query(tuple(goal), result_var, threshold, degree_var)

    # -- proximity declarations ----------------------------------------------

    def prox_decls(self) -> list:
        out = []
        while self.peek():
            if not self.skip("prox"):
                self.unexpected(self.pos, "'prox'")
            self.expect_punct("(")
            a = self.prox_symbol()
            self.expect_punct(",")
            b = self.prox_symbol()
            self.expect_punct(",")
            if not _is_num(self.peek()):
                self.unexpected(self.pos, "a degree")
            degree = check_degree(self.peek())
            self.pos += 1
            self.expect_punct(")")
            self.expect_punct(".")
            out.append((a, b, degree))
        return out

    def prox_symbol(self) -> Sym:
        word = self.peek()
        if word[:1] in _PUNCT_START and word not in _COMPARE_OPS:
            self.unexpected(self.pos, "a symbol")
        self.pos += 1
        return self._make(Sym, self.pos - 1)


def _parse(text: str, rule):
    """``rule`` applied to all of ``text``; too deep a nesting is a ParseError."""
    p = _Parser(text)
    try:
        result = rule(p)
    except RecursionError:
        p.fail("term nested too deeply")
    p.expect_eof()
    return result


def parse_program(text: str) -> SourceProgram:
    return _parse(text, _Parser.program)


def parse_query(text: str) -> Query:
    return _parse(text, _Parser.query)


def parse_proximity_decls(text: str) -> list:
    """Parse ``prox(sym, sym, degree).`` declarations into triples."""
    return _parse(text, _Parser.prox_decls)


def parse_term(text: str):
    return _parse(text, _Parser.term)


def parse_sequence(text: str) -> tuple:
    return _parse(text, _Parser.sequence)


def parse_literal(text: str):
    return _parse(text, _Parser.literal)
