"""Exception hierarchy shared by the parser, the matcher, and the engine."""


class RhoError(Exception):
    """Base class for every refusal raised by this package. An argument of the
    wrong Python type raises ``TypeError`` instead, as is usual in Python."""


class InvalidValueError(RhoError, ValueError):
    """Argument that is refused: a malformed name, a non-ground subject, a
    pattern with a hole, or a context without one."""


class ParseError(RhoError):
    """Syntax error, with source position and the expected-token set."""

    def __init__(self, message, line=None, col=None, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        where = f" at line {line}, column {col}" if line is not None else ""
        hint = ""
        if self.expected:
            hint = " (expected " + " or ".join(self.expected) + ")"
        super().__init__(f"{message}{where}{hint}")


class UnsupportedFeatureError(ParseError):
    """Syntax that is recognized but deliberately not supported (``where``)."""


class ThresholdRangeError(RhoError):
    """Query or ``prox`` threshold outside [0, 1]."""


class DegreeRangeError(RhoError):
    """Declared proximity degree outside (0, 1]."""


class KindMismatchError(RhoError):
    """Substitution binding that violates the variable-kind discipline."""


class LoadError(RhoError):
    """Structurally invalid clause encountered while building the database."""


class DuplicateBuiltinError(LoadError):
    """User clause that shadows a built-in strategy or predicate name."""


class HoleInGoalError(RhoError):
    """Query goal that contains ``hole``."""


class NonGroundRedexError(RhoError):
    """Selected literal whose strategy or left-hand side still has variables."""


class UnknownStrategyError(RhoError):
    """No clause and no builtin matches the selected strategy head symbol."""


class UnknownPredicateError(RhoError):
    """No clause and no builtin matches the selected predicate name."""


class ArityError(RhoError):
    """Builtin strategy called with an unsupported number of arguments."""


class NonTermResultError(RhoError):
    """``map`` subordinate strategy produced a result that is not a single term."""


class NonNumericError(RhoError):
    """Comparison predicate applied to a symbol that is not a numeral."""


class StepLimitError(RhoError):
    """``nf`` exceeded the configured rewrite-step limit."""
