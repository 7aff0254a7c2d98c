"""Lexer and recursive-descent parser.

Input formats (full EBNF in docs/grammar.md):

* programs: clauses terminated by ``.``, with ``%`` line comments;
* queries: ``?(Goal, Result).`` for exact answers, or
  ``?(Goal, Threshold, Degree, Result).`` for threshold answers, where
  the markers are capitalized identifiers;
* proximity declarations: lines of ``prox(sym, sym, degree).``.

Identifier tokens are runs of letters, digits and ``_`` (``\\w+``); one
made only of decimal digits is a number, and so is ``digits.digits``.
Names starting with ``i_``, ``s_``, ``f_``, ``c_`` are variables of the
corresponding kind, and the comparison operators ``=<  <  >  >=`` double
as function symbols so they can be passed as strategy arguments.
Numerals, thresholds and degrees are read and range-checked by the same
functions as in the engine: ``terms.numeral_value``,
``proximity.check_threshold`` and ``proximity.check_degree``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "num" | "punct" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens = []
    pos, line, line_start = 0, 1, 0
    while (m := _TOKEN.match(text, pos)) is not None:
        kind, start, pos = m.lastgroup, m.start(), m.end()
        if kind == "skip":
            newlines = text.count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", start, pos) + 1
            continue
        word = m.group()
        if kind == "word":
            kind = "num" if word.isdecimal() else "ident"
        tokens.append(Token(kind, word, line, start - line_start + 1))
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


def _as_literal(parsed):
    """A parsed literal as it is, a bare compound as a predicate atom, or
    None for any other term."""
    if isinstance(parsed, Compound):
        return PredAtom(parsed.head, parsed.args)
    return parsed if isinstance(parsed, (RhoAtom, PredAtom, NotGoal)) else None


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self, offset=0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def take(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_punct(self, *texts) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text in texts

    def at_ident(self, text) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == text

    def expect_punct(self, text) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != text:
            self.unexpected(tok, repr(text))
        return self.take()

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(f"unexpected trailing {self._describe(tok)}", tok,
                      expected=("end of input",))

    @staticmethod
    def _describe(tok: Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(tok.text)

    def fail(self, message, tok=None, expected=()):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col, expected)

    def unexpected(self, tok: Token, *expected):
        self.fail(f"unexpected {self._describe(tok)}", tok, expected)

    def _make(self, ctor, tok: Token):
        """``ctor(tok.text)``, with a rejected name reported at ``tok``."""
        try:
            return ctor(tok.text)
        except ValueError as exc:
            self.fail(str(exc), tok)

    # -- terms and sequences ------------------------------------------------

    def term(self):
        tok = self.peek()
        word = tok.text
        if tok.kind == "num":
            self.take()
            return Compound(Sym(word))
        if tok.kind == "ident":
            if word == "hole":
                self.take()
                return HOLE
            if word == "eps":
                self.fail("eps is the empty sequence, not a term", tok)
            if word.startswith("s_"):
                self.fail(
                    "sequence variable not allowed here (only inside a sequence)", tok
                )
            self.take()
            if word.startswith("i_"):
                return self._make(IndVar, tok)
            if word.startswith("c_"):
                self.expect_punct("(")
                arg = self.term()
                self.expect_punct(")")
                return CtxApply(self._make(CtxVar, tok), arg)
            head = self._make(FunVar if word.startswith("f_") else Sym, tok)
        elif tok.kind == "punct" and word in _COMPARE_OPS:
            self.take()
            head = Sym(word)
        else:
            self.unexpected(tok, "a term")
        return Compound(head, self.sequence() if self.at_punct("(") else ())

    def sequence(self) -> tuple:
        """``eps``, a sequence variable, ``( [items] )`` or a term, where the
        items are sequences separated by commas. Items splice into the
        enclosing sequence, so the result is flat."""
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "eps":
            self.take()
            return ()
        if tok.kind == "ident" and tok.text.startswith("s_"):
            self.take()
            return (self._make(SeqVar, tok),)
        if not self.at_punct("("):
            return (self.term(),)
        self.take()
        items = []
        if not self.at_punct(")"):
            items.extend(self.sequence())
            while self.at_punct(","):
                self.take()
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
        if self.at_ident("not") and self.peek(1).kind == "punct" and self.peek(1).text == "(":
            self.take()
            self.take()
            inner = self.literal()
            self.expect_punct(")")
            return NotGoal(inner)
        t = self.term()
        if self.at_punct("::"):
            self.take()
            lhs = self.sequence()
            if self.at_punct("==>"):
                positive = True
            elif self.at_punct("=\\=>"):
                positive = False
            else:
                self.fail("expected an arrow after the left-hand side",
                          expected=("'==>'", "'=\\=>'"))
            self.take()
            rhs = self.sequence()
            return RhoAtom(t, lhs, rhs, positive)
        if self.at_punct(*_COMPARE_OPS):
            op = self.take()
            rhs = self.term()
            return PredAtom(Sym(op.text), (t, rhs))
        return t

    def body(self) -> tuple:
        """The rest of a clause: an optional ``:- literal, ...`` and the ``.``."""
        literals = []
        if self.at_punct(":-"):
            self.take()
            literals.append(self.literal())
            while self.at_punct(","):
                self.take()
                literals.append(self.literal())
        self.expect_punct(".")
        return tuple(literals)

    def clause(self):
        head = self.term()
        if self.at_punct("::"):
            self.take()
            lhs = self.sequence()
            if self.at_punct("=\\=>"):
                self.fail("a clause head cannot be negated")
            self.expect_punct("==>")
            rhs = self.sequence()
            if self.at_ident("where"):
                tok = self.peek()
                raise UnsupportedFeatureError(
                    "'where' constraints are not supported", tok.line, tok.col
                )
            return RhoClause(head, lhs, rhs, self.body())
        if self.at_punct(":="):
            self.take()
            rhs = self.term()
            self.expect_punct(".")
            return StrategyAbbrev(head, rhs)
        if self.at_punct(":-", "."):
            if not (isinstance(head, Compound) and isinstance(head.head, Sym)):
                self.fail("a predicate clause head must be symbol-headed")
            return PredClause(head.head.name, head.args, self.body())
        self.unexpected(self.peek(), "'::'", "':='", "':-'", "'.'")

    def program(self) -> SourceProgram:
        clauses = []
        while self.peek().kind != "eof":
            clauses.append(self.clause())
        return SourceProgram(tuple(clauses))

    # -- queries -------------------------------------------------------------

    def query(self) -> Query:
        self.expect_punct("?")
        self.expect_punct("(")
        entries = [self.literal_or_term()]
        while self.at_punct(","):
            self.take()
            entries.append(self.literal_or_term())
        self.expect_punct(")")
        self.expect_punct(".")
        self.expect_eof()
        return self._classify_query(entries)

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

    def _classify_query(self, entries) -> Query:
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
                degree_var = maybe_degree
                threshold = check_threshold(maybe_threshold)
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
        while self.peek().kind != "eof":
            if not self.at_ident("prox"):
                self.unexpected(self.peek(), "'prox'")
            self.take()
            self.expect_punct("(")
            a = self.prox_symbol()
            self.expect_punct(",")
            b = self.prox_symbol()
            self.expect_punct(",")
            tok = self.take()
            if tok.kind != "num":
                self.unexpected(tok, "a degree")
            degree = check_degree(tok.text)
            self.expect_punct(")")
            self.expect_punct(".")
            out.append((a, b, degree))
        return out

    def prox_symbol(self) -> Sym:
        tok = self.take()
        if tok.kind in ("ident", "num") or (tok.kind == "punct" and tok.text in _COMPARE_OPS):
            return self._make(Sym, tok)
        self.unexpected(tok, "a symbol")


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
