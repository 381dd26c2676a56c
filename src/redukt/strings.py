"""Legal strings over the barred pointer alphabet.

A pointer is an integer symbol >= 2, optionally barred.  The bar is an
involution, so barring twice gives back the original pointer.  A legal
string is a sequence of pointers in which every occurring symbol appears
exactly twice, counting barred and unbarred occurrences together.  The
empty string is legal.

Text format: tokens separated by whitespace, a bar rendered as a leading
'-'.  For example "2 -7 4 7 3 5 3 -4 2 6 5 6" is a legal string over the
symbols 2..7.

A symbol is positive in a string when its two occurrences are barred
differently, negative when they carry the same bar state.  Two legal
strings are equivalent when one can be turned into the other by
re-signing symbols (barring or unbarring both occurrences of a symbol at
once, which preserves positivity); equivalently, when their unbarred
projections coincide and they have the same set of positive symbols.

Everything in this module is immutable and all operations are pure.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence


class ParseError(ValueError):
    """A token or letter is not a pointer: an optionally '-'-prefixed integer >= 2."""


class LegalityError(ValueError):
    """Some symbol does not occur exactly twice."""


def _is_symbol(value) -> bool:
    """Whether value is a pointer symbol: an int >= 2 that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 2


def _value(cls=None, /, *, init=True, repr=True, order=False):
    """Class decorator making cls a frozen value class over its annotated
    fields, those of a decorated base class first.  It adds __init__
    taking the fields in order, with the class attributes as defaults,
    then calling __post_init__ if the class has one (unless init is
    False); == between instances of one class and a hash, both over the
    field tuple; the repr ClassName(field=...) (unless repr is False);
    <, <=, > and >= over the field tuple between instances of one class
    if order is True; and an AttributeError on every assignment or
    deletion.  Instances keep a __dict__, where a class may cache values
    that are not fields and so stay outside ==, hash and repr."""
    if cls is None:
        return lambda c: _value(c, init=init, repr=repr, order=order)
    cls._fields = names = getattr(cls, "_fields", ()) + tuple(cls.__annotations__)
    defaults = {n: getattr(cls, n) for n in names if hasattr(cls, n)}
    mine, theirs = ("(" + "".join(f"{o}.{n}, " for n in names) + ")" for o in ("self", "other"))
    same = "if other.__class__ is self.__class__ else NotImplemented"
    methods = {
        "__eq__": f"(self, other): return {mine} == {theirs} {same}",
        "__hash__": f"(self): return hash({mine})",
        "__setattr__": "(self, name, value): raise AttributeError(f'cannot assign to {name!r}: the value is frozen')",
        "__delattr__": "(self, name): raise AttributeError(f'cannot delete {name!r}: the value is frozen')",
    }
    if init:
        params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
        body = "".join(f"_set(self, {n!r}, {n}); " for n in names)
        post = "self.__post_init__()" if hasattr(cls, "__post_init__") else "pass"
        methods["__init__"] = f"(self{params}): {body}{post}"
    if repr:
        shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
        methods["__repr__"] = f"(self): return f'{{self.__class__.__qualname__}}({shown})'"
    if order:
        for name, op in (("__lt__", "<"), ("__le__", "<="), ("__gt__", ">"), ("__ge__", ">=")):
            methods[name] = f"(self, other): return {mine} {op} {theirs} {same}"
    scope = {"_set": object.__setattr__, "_defaults": defaults}
    exec("\n".join(f"def {name}{text}" for name, text in methods.items()), scope)
    for name in methods:
        setattr(cls, name, scope[name])
    return cls


@_value(order=True)
class Pointer:
    """One letter of a legal string: an unbarred symbol plus a bar flag."""

    symbol: int
    barred: bool = False

    def __post_init__(self) -> None:
        if not _is_symbol(self.symbol):
            raise ParseError(f"pointer symbol must be an integer >= 2, got {self.symbol!r}")
        if not isinstance(self.barred, bool):
            raise ParseError(f"pointer bar flag must be a bool, got {self.barred!r}")

    def bar(self) -> "Pointer":
        return Pointer(self.symbol, not self.barred)

    def __str__(self) -> str:
        return f"-{self.symbol}" if self.barred else str(self.symbol)


@_value(init=False, repr=False)
class LegalString:
    """An immutable sequence of pointers with every symbol occurring twice.

    The one field is the word _word, the letters as signed ints with -p
    for a barred p; == and hash see only the word.
    The legality check, _scan, also builds the occurrence index _occ,
    symbol -> 0-based positions (i, j), i < j, kept outside the fields.
    The letters are computed from the word when read.
    """

    _word: tuple[int, ...]

    def __init__(self, letters: Iterable[Pointer]) -> None:
        word = []
        for j, x in enumerate(letters):
            if not isinstance(x, Pointer):
                raise ParseError(f"letter {j} is not a Pointer: {x!r}")
            word.append(-x.symbol if x.barred else x.symbol)
        self.__dict__.update(_word=tuple(word), _occ=_scan(word)[1])

    @property
    def letters(self) -> tuple[Pointer, ...]:
        return tuple([Pointer(abs(x), x < 0) for x in self._word])

    def __len__(self) -> int:
        return len(self._word)

    def __iter__(self) -> Iterator[Pointer]:
        return iter(self.letters)

    def __repr__(self) -> str:
        return f"LegalString(letters={self.letters!r})"

    def __str__(self) -> str:
        return format_legal_string(self)


def _legality_error(symbols: Iterable[int]) -> LegalityError:
    bad = sorted(p for p, c in Counter(symbols).items() if c != 2)
    return LegalityError(f"symbols not occurring exactly twice: {bad}")


def _scan(word: Sequence[int]) -> tuple[tuple[int, ...], dict[int, tuple[int, int]]]:
    """One pass over a word, letters as signed ints with -p for a barred p:
    its canonical representative (first occurrences unbarred, each second
    occurrence re-signed with its first) and its occurrence index, symbol
    -> 0-based (i, j).  Raises LegalityError unless every symbol occurs
    exactly twice: the one legality test of every LegalString."""
    first: dict[int, int] = {}
    occ: dict[int, tuple[int, int]] = {}
    out = []
    for j, x in enumerate(word):
        p = -x if x < 0 else x
        i = first.setdefault(p, j)
        if i == j:
            out.append(p)
        else:
            occ[p] = (i, j)
            out.append(-x if word[i] < 0 else x)
    if len(occ) != len(first) or 2 * len(occ) != len(word):
        raise _legality_error(map(abs, word))
    return tuple(out), occ


def _from_word(word: tuple[int, ...], occ: dict[int, tuple[int, int]]) -> LegalString:
    # no check of its own: word has passed _scan, and occ is its index
    u = object.__new__(LegalString)
    u.__dict__.update(_word=word, _occ=occ)
    return u


def legal_string(letters: Iterable[Pointer]) -> LegalString:
    return LegalString(tuple(letters))


EMPTY = LegalString(())


def parse_legal_string(text: str) -> LegalString:
    """Parse whitespace-separated tokens into a legal string.

    Raises ParseError on a malformed token and LegalityError when some
    symbol does not occur exactly twice.
    """
    word = []
    for token in text.split():
        body = token[1:] if token.startswith("-") else token
        # reject '+5', '07' is fine, '2.0'/'1'/'-1' are not, nor '²', a
        # digit but not a decimal one, which int() rejects
        if not body.isdecimal():
            raise ParseError(f"bad token {token!r}")
        try:
            value = int(body)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"bad token {token!r}: too many digits") from None
        if value < 2:
            raise ParseError(f"bad token {token!r}: symbol must be >= 2")
        word.append(-value if token.startswith("-") else value)
    return _from_word(tuple(word), _scan(word)[1])


def format_legal_string(u: LegalString) -> str:
    return " ".join(map(str, u._word))  # str(-p) is the text of a barred p


def domain(u: LegalString) -> frozenset[int]:
    """The set of unbarred symbols occurring in u."""
    return frozenset(u._occ)


def _occurrences(u: LegalString, p: int) -> tuple[int, int]:
    # 0-based indices of the two occurrences of symbol p; a non-symbol such
    # as 2.0 is absent, though it hashes and compares equal to 2
    if _is_symbol(p) and p in u._occ:
        return u._occ[p]
    raise ValueError(f"symbol {p} not in domain")


def is_positive(u: LegalString, p: int) -> bool:
    """True iff exactly one of the two occurrences of p is barred."""
    i, j = _occurrences(u, p)
    return u._word[i] != u._word[j]


def p_interval(u: LegalString, p: int) -> tuple[int, int]:
    """The 1-based positions (i, j), i < j, of the two occurrences of p."""
    i, j = _occurrences(u, p)
    return i + 1, j + 1


def overlap(u: LegalString, p: int, q: int) -> bool:
    """True iff the occurrence pairs of the distinct symbols p, q interleave."""
    if p == q:
        raise ValueError("overlap requires two distinct symbols")
    i1, i2 = _occurrences(u, p)
    j1, j2 = _occurrences(u, q)
    return (i1 < j1 < i2 < j2) or (j1 < i1 < j2 < i2)


def inverse(u):
    """The reversed string with every letter barred.

    Defined on any pointer sequence, not just legal strings: a
    LegalString comes back as a LegalString, a plain sequence as a tuple.
    """
    out = tuple(x.bar() for x in reversed(tuple(u)))
    return LegalString(out) if isinstance(u, LegalString) else out


def positive_symbols(u: LegalString) -> frozenset[int]:
    w = u._word
    return frozenset(p for p, (i, j) in u._occ.items() if w[i] != w[j])


def equivalent(u: LegalString, v: LegalString) -> bool:
    """True iff u and v agree in unbarred projection and positive symbols."""
    return _scan(u._word)[0] == _scan(v._word)[0]


def canonical_equiv_rep(u: LegalString) -> LegalString:
    """The equivalent string whose first occurrences are all unbarred.

    The second occurrence of a symbol is barred exactly when the symbol
    is positive, so equivalent strings map to the same representative.
    It re-signs exactly the symbols whose first occurrence is barred, on
    u's word, and returns u itself when there are none.
    """
    word, occ = _scan(u._word)
    return u if word == u._word else _from_word(word, occ)


__all__ = [
    "EMPTY",
    "LegalString",
    "LegalityError",
    "ParseError",
    "Pointer",
    "canonical_equiv_rep",
    "domain",
    "equivalent",
    "format_legal_string",
    "inverse",
    "is_positive",
    "legal_string",
    "overlap",
    "p_interval",
    "parse_legal_string",
    "positive_symbols",
]
