"""Lexer and recursive-descent parser.

Input formats (full EBNF in docs/grammar.md):

* programs: clauses terminated by ``.``, with ``%`` line comments;
* queries: ``?(Goal, Result).`` for exact answers, or
  ``?(Goal, Threshold, Degree, Result).`` for threshold answers, where
  the markers are capitalized identifiers;
* proximity declarations: lines of ``prox(sym, sym, degree).``.

One ``re.split`` call turns the text into its token texts; offsets are
worked out only for a ParseError, by matching the text again up to the
token at fault. Identifier tokens are runs of letters, digits and ``_``
(``\\w+``); one made only of decimal digits is a number, and so is
``digits.digits``.
Names starting with ``i_``, ``s_``, ``f_``, ``c_`` are variables of the
corresponding kind, and the comparison operators ``=<  <  >  >=`` double
as function symbols so they can be passed as strategy arguments.
Numerals, thresholds and degrees are read and range-checked by the same
functions as in the engine: ``terms.is_numeral`` and ``numeral_value``,
``proximity.check_threshold`` and ``proximity.check_degree``.
"""

from __future__ import annotations

import itertools
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
    is_numeral,
    numeral_value,
)

_COMPARE_OPS = ("=<", "<", ">", ">=")

# A match is the whitespace and comments before a token, then the token in
# group 1, "" at the end of input; a number is tried before a word so that
# ``1.5`` is one token, and longer punctuation first. A character that starts
# no token matches alone, outside the group, so ``re.split`` gives None for it.
# ``\w`` is ``str.isalnum()`` plus ``_``; a word is a number when it is
# all decimal digits.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|%[^\n]*)*"
    r"(?:(\d+\.\d+|\w+|=\\=>|==>|>=|=<|::|:-|:=|[()?,.<>]|\Z)|.)"
)


# The first characters of punctuation; every other token starts with ``\w``.
# ``word[:1] in _PUNCT_START`` holds for the end of input too, as "" is in it.
_PUNCT_START = "=><:()?,."
_SYMBOLS = Sym._table  # interned symbols by name


def _position(text: str, at: int) -> tuple:
    """The offset and the 1-based line and column of token ``at`` of ``text``."""
    m = next(itertools.islice(_TOKEN.finditer(text), at, None))
    offset = m.end() - 1 if m[1] is None else m.start(1)
    return offset, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _scan(text: str) -> list:
    """The token texts of ``text``, ending with the end of input, "". A
    character that starts no token is a ParseError."""
    texts = _TOKEN.split(text)[1::2]
    if len(texts) > 1 and texts[-2] == "":
        texts.pop()  # after trailing whitespace the end of input matches twice
    if None in texts:
        offset, line, col = _position(text, texts.index(None))
        raise ParseError(f"unexpected character {text[offset]!r}", line, col)
    return texts


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
        self.texts = _scan(text)
        self.pos = 0

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
        raise error(message, *_position(self.text, self.pos if at is None else at)[1:], expected)

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
        head = _SYMBOLS.get(word)
        if head is None or not word[0].isalpha():  # else no numeral or punctuation
            kind = word[:2]
            if word in _COMPARE_OPS:
                head = Sym(word)
            elif word[:1] in _PUNCT_START:
                self.unexpected(at, "a term")
            elif is_numeral(word):
                self.pos += 1
                return Compound(Sym(word))
            elif word == "hole":
                self.pos += 1
                return HOLE
            elif word == "eps":
                self.fail("eps is the empty sequence, not a term")
            elif kind == "s_":
                self.fail("sequence variable not allowed here (only inside a sequence)")
            elif kind == "i_":
                self.pos += 1
                return self._make(IndVar, at)
            elif kind == "c_":
                self.pos += 1
                self.expect_punct("(")
                arg = self.term()
                self.expect_punct(")")
                return CtxApply(self._make(CtxVar, at), arg)
            else:  # Sym refuses no name that is left
                head = self._make(FunVar, at) if kind == "f_" else Sym(word)
        self.pos = at + 1
        return Compound(head, self.sequence() if self.texts[at + 1] == "(" else ())

    def sequence(self) -> tuple:
        """``eps``, a sequence variable, ``( [items] )`` or a term, where the
        items are sequences separated by commas. Items splice into the
        enclosing sequence, so the result is flat."""
        word = self.texts[self.pos]
        if word == "(":
            self.pos += 1
            items = []
            if self.texts[self.pos] != ")":
                items.extend(self.sequence())
                while self.skip(","):
                    items.extend(self.sequence())
            self.expect_punct(")")
            return tuple(items)
        if word == "eps":
            self.pos += 1
            return ()
        if word.startswith("s_"):
            self.pos += 1
            return (self._make(SeqVar, self.pos - 1),)
        return (self.term(),)

    # -- literals, clauses, programs ----------------------------------------

    def literal(self):
        lit = _as_literal(self.literal_or_term())
        if lit is None:
            self.fail("expected a literal")
        return lit

    def literal_or_term(self):
        """Parse a literal if an atom shape follows, otherwise a bare term."""
        if self.texts[self.pos] == "not" and self.texts[self.pos + 1] == "(":
            self.pos += 2
            inner = self.literal()
            self.expect_punct(")")
            return NotGoal(inner)
        t = self.term()
        if self.skip("::"):
            lhs, arrow = self.sequence(), self.texts[self.pos]
            if arrow not in ("==>", "=\\=>"):
                self.fail("expected an arrow after the left-hand side",
                          expected=("'==>'", "'=\\=>'"))
            self.pos += 1
            return RhoAtom(t, lhs, self.sequence(), arrow == "==>")
        op = self.texts[self.pos]
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
            if self.texts[self.pos] == "=\\=>":
                self.fail("a clause head cannot be negated")
            self.expect_punct("==>")
            rhs = self.sequence()
            if self.texts[self.pos] == "where":
                self.fail("'where' constraints are not supported", error=UnsupportedFeatureError)
            return RhoClause(head, lhs, rhs, self.body())
        if self.skip(":="):
            rhs = self.term()
            self.expect_punct(".")
            return StrategyAbbrev(head, rhs)
        if self.texts[self.pos] in (":-", "."):
            if not (isinstance(head, Compound) and isinstance(head.head, Sym)):
                self.fail("a predicate clause head must be symbol-headed")
            return PredClause(head.head.name, head.args, self.body())
        self.unexpected(self.pos, "'::'", "':='", "':-'", "'.'")

    def program(self) -> SourceProgram:
        clauses = []
        while self.texts[self.pos]:
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
        while self.texts[self.pos]:
            if not self.skip("prox"):
                self.unexpected(self.pos, "'prox'")
            self.expect_punct("(")
            a = self.prox_symbol()
            self.expect_punct(",")
            b = self.prox_symbol()
            self.expect_punct(",")
            if not is_numeral(self.texts[self.pos]):
                self.unexpected(self.pos, "a degree")
            degree = check_degree(self.texts[self.pos])
            self.pos += 1
            self.expect_punct(")")
            self.expect_punct(".")
            out.append((a, b, degree))
        return out

    def prox_symbol(self) -> Sym:
        word = self.texts[self.pos]
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
