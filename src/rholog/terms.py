"""Unranked terms, sequences, contexts, and substitutions.

The value model is small and uniform:

* a term is ``hole``, an individual variable, a compound
  ``head(item,...,item)`` whose head is a symbol or a function variable,
  or a context application ``c_X(term)``;
* a sequence (hedge) is a flat tuple of items, where an item is a term
  or, in patterns only, a sequence variable; the empty tuple is ``eps``;
* a context is a term containing exactly one ``hole``;
* constants and numerals are compounds with an empty argument tuple.

All values are immutable, so the backtracking engine can share them
freely between branches (and threads) without copying. Symbols and
variables are interned, so they compare and hash by identity, in C, and
their tables are safe to fill from several threads at once. The other value
classes derive from ``Record``, which writes each class's constructor from its
``__slots__`` and gives the rest from one set of methods written by hand:
generating such classes' methods with ``dataclasses`` took a third of the
command line's start-up.
"""

from __future__ import annotations

from decimal import Decimal

from .errors import InvalidValueError, KindMismatchError

VAR_PREFIXES = ("i_", "s_", "f_", "c_")
RESERVED_NAMES = frozenset({"hole", "eps"})


class _Atom:
    """A name, with one object per class and name, kept for the life of the
    process: ``==`` and ``hash`` are ``object``'s, and ``copy``, ``deepcopy``
    and ``pickle`` give back the same object. A name is validated once, when
    its object is made, and ``dict.setdefault`` gives threads racing on one
    name the same object."""

    __slots__ = ("_name",)

    def __init_subclass__(cls) -> None:
        cls._table = {}

    def __new__(cls, name: str):
        atom = cls._table.get(name)
        if atom is None:
            if not isinstance(name, str):
                raise TypeError(f"{cls.__name__} name must be a str, got {name!r}")
            cls._validate(name)
            atom = object.__new__(cls)
            atom._name = name
            atom = cls._table.setdefault(name, atom)
        return atom

    def __reduce__(self):
        return type(self), (self._name,)

    def __repr__(self) -> str:
        return self._name


_Atom.name = property(_Atom._name.__get__, doc="The name; read-only.")


class Sym(_Atom):
    """Function symbol without fixed arity; numerals are plain symbols."""

    __slots__ = ("_value",)  # a numeral's Decimal, else None; set when first asked

    @staticmethod
    def _validate(name) -> None:
        if not name:
            raise InvalidValueError("symbol name must be nonempty")
        if name in RESERVED_NAMES:
            raise InvalidValueError(f"{name!r} is a reserved word")
        if name.startswith(VAR_PREFIXES):
            raise InvalidValueError(f"symbol name {name!r} starts with a variable prefix")


class Var(_Atom):
    """A variable: a name that starts with its kind's prefix."""

    __slots__ = ()

    @classmethod
    def _validate(cls, name) -> None:
        if not name.startswith(cls.prefix) or len(name) <= len(cls.prefix):
            raise InvalidValueError(f"variable name {name!r} must be {cls.prefix}<base>")


class IndVar(Var):
    """Individual variable ``i_...``; stands for a single hole-free term."""

    __slots__ = ()
    prefix = "i_"


class SeqVar(Var):
    """Sequence variable ``s_...``; stands for a hole-free sequence."""

    __slots__ = ()
    prefix = "s_"


class FunVar(Var):
    """Function variable ``f_...``; stands for a function head."""

    __slots__ = ()
    prefix = "f_"


class CtxVar(Var):
    """Context variable ``c_...``; stands for a one-hole context."""

    __slots__ = ()
    prefix = "c_"


class Record:
    """An immutable value whose fields are its ``__slots__``: built, compared,
    hashed, printed and pickled by them. A class that defines no ``__init__``
    gets one written when the class is made, with a parameter per field in
    ``__slots__`` order; ``_defaults`` holds the defaults of the last ones."""

    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls) -> None:
        if "__init__" not in cls.__dict__:
            names = cls.__slots__
            body = "".join(f"\n _set(self, {name!r}, {name})" for name in names) or " pass"
            namespace = {"_set": object.__setattr__}
            exec(f"def __init__(self, {', '.join(names)}):{body}", namespace)
            init = namespace["__init__"]
            init.__defaults__ = cls._defaults
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = init

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__reduce__() == other.__reduce__()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r}: the value is immutable")

    __delattr__ = __setattr__


class Hole(Record):
    """The distinguished hole constant."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "hole"


HOLE = Hole()


class Compound(Record):
    """``head(arg,...,arg)`` with an unranked head and a hedge of arguments."""

    __slots__ = ("head", "args", "_holes", "_ground")  # hole count, groundness: computed once

    def __init__(self, head: "FunHead", args: "Hedge" = ()):
        args, holes, ground = tuple(args), 0, isinstance(head, Sym)
        for item in args:
            if isinstance(item, Compound):
                holes += item._holes
                ground = ground and item._ground
            elif isinstance(item, Var):
                ground = False
            elif isinstance(item, Hole):
                holes += 1
            else:
                if not isinstance(item, CtxApply):
                    raise TypeError(f"not a term or a sequence variable: {item!r}")
                holes += hole_count(item)
                ground = ground and is_ground(item)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_holes", holes)
        object.__setattr__(self, "_ground", ground)

    def __eq__(self, other):
        if other.__class__ is Compound:
            return self.head is other.head and self.args == other.args
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.head, self.args))

    def __reduce__(self):
        return Compound, (self.head, self.args)

    def __repr__(self) -> str:
        if not self.args:
            return repr(self.head)
        return f"{self.head!r}({','.join(map(repr, self.args))})"


class CtxApply(Record):
    """Application of a context variable to a single term."""

    __slots__ = ("var", "arg")

    def __repr__(self) -> str:
        return f"{self.var!r}({self.arg!r})"


Term = "Hole | IndVar | Compound | CtxApply"
Item = "Term | SeqVar"
Hedge = "tuple[Item, ...]"
FunHead = "Sym | FunVar"


def atom(name: str) -> Compound:
    """Constant: a compound with no arguments."""
    return Compound(Sym(name))


def is_numeral(word: str) -> bool:
    """Whether a name is a number: decimal digits, maybe ``.digits``."""
    whole, dot, fraction = word.partition(".")
    return whole.isdecimal() and (not dot or fraction.isdecimal())


def numeral_value(t) -> Decimal | None:
    """Decimal value of a numeric constant term, else None."""
    if isinstance(t, Compound) and isinstance(t.head, Sym) and not t.args:
        if not hasattr(t.head, "_value"):
            t.head._value = Decimal(t.head.name) if is_numeral(t.head.name) else None
        return t.head._value


def render_sequence(h) -> str:
    """A hedge or a lone item as text: ``eps``, the item, or ``(item,...,item)``."""
    if not isinstance(h, tuple):
        return repr(h)
    if not h:
        return "eps"
    if len(h) == 1:
        return repr(h[0])
    return "(" + ",".join(map(repr, h)) + ")"


def iter_vars(x) -> list:
    """All variable occurrences of a term, item, head, or hedge, in preorder:
    one loop over a stack of what is left to visit, so nesting costs no
    Python stack. A compound whose cached flag says it is ground is skipped."""
    found, stack = [], [x]
    while stack:
        x = stack.pop()
        if isinstance(x, Compound):
            if not x._ground:
                if isinstance(x.head, FunVar):
                    found.append(x.head)
                stack.extend(x.args[::-1])
        elif isinstance(x, tuple):
            stack.extend(x[::-1])
        elif isinstance(x, Var):
            found.append(x)
        elif isinstance(x, CtxApply):
            found.append(x.var)
            stack.append(x.arg)
        # Sym and Hole contain no variables
    return found


def is_ground(x) -> bool:
    if isinstance(x, tuple):
        return all(map(is_ground, x))
    if isinstance(x, Compound):
        return x._ground
    return not isinstance(x, (Var, CtxApply))


def hole_count(x) -> int:
    if isinstance(x, tuple):
        return sum(map(hole_count, x))
    if isinstance(x, Compound):
        return x._holes
    if isinstance(x, Hole):
        return 1
    if isinstance(x, CtxApply):
        return hole_count(x.arg)
    return 0


def apply_context(ctx: Term, t: Term) -> Term:
    """Replace the single hole of ``ctx`` with ``t``."""
    if isinstance(ctx, Hole):
        return t
    if isinstance(ctx, Compound):
        for i, item in enumerate(ctx.args):
            if hole_count(item) == 1:
                plugged = apply_context(item, t)
                return Compound(ctx.head, ctx.args[:i] + (plugged,) + ctx.args[i + 1:])
    if isinstance(ctx, CtxApply):
        return CtxApply(ctx.var, apply_context(ctx.arg, t))
    raise InvalidValueError(f"not a context (no hole): {ctx!r}")


_KINDS = {  # variable class: (value classes it takes, their hole count, what it maps to)
    IndVar: ((Hole, IndVar, Compound, CtxApply), 0, "a hole-free term"),
    SeqVar: (tuple, 0, "a hole-free sequence"),
    FunVar: ((Sym, FunVar), 0, "a function head"),
    CtxVar: ((Hole, Compound, CtxApply), 1, "a one-hole context"),
}


def _check_binding(var, value) -> None:
    if type(var) not in _KINDS:
        raise KindMismatchError(f"not a variable: {var!r}")
    classes, holes, wanted = _KINDS[type(var)]
    if not isinstance(value, classes) or hole_count(value) != holes:
        raise KindMismatchError(f"{var!r} must map to {wanted}, got {value!r}")


def identity_value(var):
    """What binding ``var`` to itself binds it to: ``(var,)`` for a sequence
    variable, ``var(hole)`` for a context variable, else ``var``."""
    if isinstance(var, SeqVar):
        return (var,)
    if isinstance(var, CtxVar):
        return CtxApply(var, HOLE)
    return var


def subst_term(m: dict, t: Term) -> Term:
    """The instance of a term or function head ``t`` under the plain dict ``m``,
    which maps variables as a ``Subst`` does; a ``Subst`` applies through this."""
    if isinstance(t, Var):
        return m.get(t, t)
    if isinstance(t, Compound):
        return t if t._ground else Compound(m.get(t.head, t.head), subst_hedge(m, t.args))
    if isinstance(t, CtxApply):
        arg, ctx = subst_term(m, t.arg), m.get(t.var)
        return CtxApply(t.var, arg) if ctx is None else apply_context(ctx, arg)
    return t  # Hole


def subst_hedge(m: dict, h) -> tuple:
    out = []
    for item in h:
        if isinstance(item, SeqVar):
            bound = m.get(item)
            out.extend((item,) if bound is None else bound)
        else:
            out.append(subst_term(m, item))
    return tuple(out)


class Subst:
    """Kind-respecting substitution.

    Individual variables map to hole-free terms, sequence variables to
    hole-free hedges, function variables to heads, and context variables
    to one-hole contexts. Variables outside the map are implicitly bound
    to themselves; identity bindings are normalized away, so equality of
    substitutions coincides with equality of their action.

    ``Subst(mapping)`` copies ``mapping``, checks each value's kind and
    drops identity bindings. The engine binds in plain dicts and builds a
    ``Subst`` only where a substitution leaves the package: a public matcher
    and an answer of ``solve``.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping=None):
        self._map = {}
        for var, value in (mapping or {}).items():
            _check_binding(var, value)
            if value != identity_value(var):
                self._map[var] = value

    def get(self, var):
        return self._map.get(var)

    def items(self):
        return self._map.items()

    def apply_term(self, t: Term) -> Term:
        return subst_term(self._map, t)

    def apply_hedge(self, h) -> tuple:
        return subst_hedge(self._map, h)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subst) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{v!r} -> {render_sequence(b)}"
            for v, b in self._map.items()
        )
        return "{" + inner + "}"

