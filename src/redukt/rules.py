"""String pointer rules, their dual counterparts, reductions, and the
fiber of strings sharing a reduction graph.

The three reducing rules delete pointers:

    snr_p(u1 p p u2)             = u1 u2            adjacent equal pair
    spr_p(u1 p u2 p' u3)         = u1 inv(u2) u3    p positive (p' = bar)
    sdr_p,q(u1 p u2 q u3 p u4 q u5) = u1 u4 u3 u2 u5   p,q negative,
                                                       overlapping

Every nonempty legal string admits one of them, so greedy search always
reaches the empty string.

The dual rules keep pointers in place and preserve the reduction graph
up to isomorphism:

    dspr_p(u1 p u2 p u3)            = u1 p inv(u2) p u3      p negative
    dsdr_p,q(u1 p u2 q u3 p' u4 q' u5) = u1 p u4 q u3 p' u2 q' u5
                                          p,q positive, overlapping

Both are self-inverse.  Two legal strings have isomorphic reduction
graphs exactly when a sequence of dual rules maps one into the
equivalence class of the other, which makes breadth-first search over
canonical representatives an exhaustive fiber enumerator, and graph
canonical forms a polynomial decision procedure for the same relation.

Rules are named by unbarred symbols; the barred variant actually
matched is determined by the string.  For the two-symbol rules the
first-named symbol is the one whose first occurrence comes first.
Serialized form: "snr(2) spr(3) dsdr(2,3)".
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import reduce as _fold
from itertools import combinations
from typing import Callable, Iterable, NamedTuple

from .redgraph import build_reduction_graph, canonical_form
from .strings import LegalString, _from_word, _is_symbol, _occurrences, _scan


class NotApplicableError(ValueError):
    """The rule does not match the string."""


class OrbitLimitError(RuntimeError):
    """Orbit enumeration hit its size budget before closing."""


@dataclass(frozen=True)
class _Rule:
    """A rule instance: its kind, a key of _KINDS, and the distinct symbols it names."""

    kind: str
    pointers: tuple[int, ...]

    def __post_init__(self) -> None:
        kind, pointers, row = self.kind, self.pointers, _KINDS.get(self.kind)
        if row is None or not isinstance(self, row.cls):
            raise ValueError(f"unknown rule kind {kind!r}")
        if len(pointers) != row.arity:
            raise ValueError(f"{kind} takes {row.arity} pointer(s), got {pointers!r}")
        if len(set(pointers)) != len(pointers):
            raise ValueError(f"{kind} needs distinct pointers")
        if not all(map(_is_symbol, pointers)):
            raise ValueError(f"bad pointers {pointers!r}")

    @property
    def dom(self) -> frozenset[int]:
        return frozenset(self.pointers)

    def __str__(self) -> str:
        return f"{self.kind}({','.join(str(p) for p in self.pointers)})"


@dataclass(frozen=True)
class StringRule(_Rule):
    """A reducing rule instance: snr(p), spr(p) or sdr(p,q)."""


@dataclass(frozen=True)
class DualRule(_Rule):
    """A non-deleting rule instance: dspr(p) or dsdr(p,q)."""


@dataclass(frozen=True)
class RuleSequence:
    """An ordered sequence of rule instances, applied left to right."""

    rules: tuple[StringRule | DualRule, ...]

    @property
    def dom(self) -> frozenset[int]:
        return frozenset().union(*(r.dom for r in self.rules)) if self.rules else frozenset()

    @property
    def odom(self) -> frozenset[int]:
        # symbols used an odd number of times; equals dom for reduced sequences
        return _fold(lambda a, b: a ^ b, (r.dom for r in self.rules), frozenset())

    @property
    def is_reduced(self) -> bool:
        return sum(len(r.dom) for r in self.rules) == len(self.dom)

    def __iter__(self):
        return iter(self.rules)

    def __str__(self) -> str:
        return " ".join(str(r) for r in self.rules)


class _Kind(NamedTuple):
    """A rule kind: the class and number of its symbols; its kernel, which
    maps a word (letters as signed ints, -p for a barred p) and the 0-based
    positions of the symbols, (i, j) for p or (i1, j1, i2, j2) with p at
    i1, i2 and q at j1, j2, i1 < j1 < i2 < j2, to the image word; its
    condition on the word at those positions, where p is negative when
    w[i] == w[j] and positive when w[i] == -w[j]; and the message,
    formatted with the symbols, when the condition fails."""

    cls: type
    arity: int
    kernel: Callable[..., tuple[int, ...]]
    holds: Callable[..., bool]
    reason: str


def _inv(segment: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([-x for x in reversed(segment)])


def _snr(w, i, j):
    return w[:i] + w[j + 1 :]


def _spr(w, i, j):
    return w[:i] + _inv(w[i + 1 : j]) + w[j + 1 :]


def _sdr(w, i1, j1, i2, j2):
    return w[:i1] + w[i2 + 1 : j2] + w[j1 + 1 : i2] + w[i1 + 1 : j1] + w[j2 + 1 :]


def _dspr(w, i, j):
    return w[: i + 1] + _inv(w[i + 1 : j]) + w[j:]


def _dsdr(w, i1, j1, i2, j2):
    return w[: i1 + 1] + w[i2 + 1 : j2] + w[j1 : i2 + 1] + w[i1 + 1 : j1] + w[j2:]


_KINDS = {
    "snr": _Kind(StringRule, 1, _snr, lambda w, i, j: j == i + 1 and w[i] == w[j],
                 "snr({0}): occurrences not adjacent and equal-signed"),
    "spr": _Kind(StringRule, 1, _spr, lambda w, i, j: w[i] != w[j], "spr({0}): {0} is not positive"),
    "sdr": _Kind(StringRule, 2, _sdr, lambda w, i1, j1, i2, j2: w[i1] == w[i2] and w[j1] == w[j2],
                 "sdr({0},{1}): both pointers must be negative"),
    "dspr": _Kind(DualRule, 1, _dspr, lambda w, i, j: w[i] == w[j], "dspr({0}): {0} is not negative"),
    "dsdr": _Kind(DualRule, 2, _dsdr, lambda w, i1, j1, i2, j2: w[i1] != w[i2] and w[j1] != w[j2],
                  "dsdr({0},{1}): both pointers must be positive"),
}

_RULE_RE = re.compile(rf"({'|'.join(_KINDS)})\((\d+)(?:,(\d+))?\)\Z")


def parse_rule(text: str) -> StringRule | DualRule:
    m = _RULE_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad rule text {text!r}")
    kind = m.group(1)
    try:
        pointers = tuple(int(g) for g in m.groups()[1:] if g is not None)
    except ValueError:  # more digits than int() converts
        raise ValueError(f"bad rule text {text!r}") from None
    return _KINDS[kind].cls(kind=kind, pointers=pointers)


def format_rule_sequence(rules: Iterable[StringRule | DualRule]) -> str:
    return " ".join(str(r) for r in rules)


def parse_rule_sequence(text: str) -> RuleSequence:
    return RuleSequence(tuple(parse_rule(tok) for tok in text.split()))


def _apply(kind: str, u: LegalString, *symbols) -> LegalString:
    """The image of u under the rule kind on the symbols, or NotApplicableError
    naming the first check that fails: two symbols distinct, each in u's
    domain, two overlapping, the first named first, the kind's condition."""
    row = _KINDS[kind]
    if len(symbols) == 2 and symbols[0] == symbols[1]:
        raise NotApplicableError("the two pointers must be distinct")
    try:
        occ = [_occurrences(u, p) for p in symbols]
    except ValueError as exc:
        raise NotApplicableError(str(exc)) from exc
    positions = occ[0]
    if len(occ) == 2:
        (p, q), ((i1, i2), (j1, j2)) = symbols, occ
        if not (i1 < j1 < i2 < j2 or j1 < i1 < j2 < i2):
            raise NotApplicableError(f"{p} and {q} do not overlap")
        if i1 > j1:
            raise NotApplicableError(f"first occurrence of {p} must precede that of {q}")
        positions = (i1, j1, i2, j2)
    if not row.holds(u._word, *positions):
        raise NotApplicableError(row.reason.format(*symbols))
    word = row.kernel(u._word, *positions)
    return _from_word(word, _scan(word)[1])


def apply_snr(u: LegalString, p: int) -> LegalString:
    """Delete an adjacent equal-signed pair p p (or both barred)."""
    return _apply("snr", u, p)


def apply_spr(u: LegalString, p: int) -> LegalString:
    """Delete a positive pair, inverting the letters in between."""
    return _apply("spr", u, p)


def apply_sdr(u: LegalString, p: int, q: int) -> LegalString:
    """Delete two overlapping negative pairs, exchanging two segments."""
    return _apply("sdr", u, p, q)


def apply_dspr(u: LegalString, p: int) -> LegalString:
    """Invert the letters between a negative pair, keeping the pair."""
    return _apply("dspr", u, p)


def apply_dsdr(u: LegalString, p: int, q: int) -> LegalString:
    """Exchange the segments between two overlapping positive pairs."""
    return _apply("dsdr", u, p, q)


def apply_rule(u: LegalString, rule: StringRule | DualRule) -> LegalString:
    return _apply(rule.kind, u, *rule.pointers)


def apply_sequence(u: LegalString, rules: Iterable[StringRule | DualRule]) -> LegalString:
    for rule in rules:
        u = apply_rule(u, rule)
    return u


# A site is one rule matching a word: (kind, symbols, positions), the
# symbols named as in the rule and the positions as its kernel takes them.


def _double_site(kind: str, occ, p: int, q: int):
    # the site of a two-symbol rule on p and q, named in first-occurrence order
    (i1, i2), (j1, j2) = occ[p], occ[q]
    if i1 > j1:
        p, q, i1, i2, j1, j2 = q, p, j1, j2, i1, i2
    return kind, (p, q), (i1, j1, i2, j2)


def _crossing_openers(word: Iterable[int]) -> set[int]:
    # the symbols p of a word with p q p q for some q: when p closes, the
    # latest-opened symbol still open crosses p unless it is p itself
    seen, closed, opened, out = set(), set(), [], set()
    for p in word:
        if p not in seen:
            seen.add(p)
            opened.append(p)
            continue
        while opened[-1] in closed:
            opened.pop()
        if opened[-1] != p:
            out.add(p)
        closed.add(p)
    return out


def _next_reduction_site(w: tuple[int, ...], occ: dict[int, tuple[int, int]]):
    # w is canonical (first occurrences unbarred), so a symbol p is
    # positive exactly when its second letter is -p
    adjacent = [p for p, (i, j) in occ.items() if j == i + 1 and w[j] > 0]
    if adjacent:
        p = min(adjacent)
        return "snr", (p,), occ[p]
    positive = [p for p, (i, j) in occ.items() if w[j] < 0]
    if positive:
        p = min(positive)
        return "spr", (p,), occ[p]
    # all negative, so no letter is barred and some pair overlaps (an
    # innermost interval would be an snr pair); the least pair p < q: p is
    # the least symbol overlapping any other, q the least symbol overlapping p
    p = min(_crossing_openers(w) | _crossing_openers(reversed(w)))
    i, j = occ[p]
    q = min(s for s in w[i + 1 : j] if occ[s][0] < i or occ[s][1] > j)
    return _double_site("sdr", occ, p, q)


def successful_reduction_search(u: LegalString) -> RuleSequence:
    """A rule sequence reducing u to the empty string.

    Deterministic greedy: snr on the least symbol with an adjacent equal
    pair, else spr on the least positive symbol, else sdr on the
    lexicographically least overlapping pair p < q, named in
    first-occurrence order.  Every nonempty legal string admits one (an
    adjacent equal pair, a positive symbol, or, failing both, an innermost
    interval forces an overlapping negative pair), and every rule shortens
    the string, so the search never backtracks.

    The search steps words (letters as signed ints, -p for a barred p)
    through the rule kernels and builds no intermediate LegalString.
    Each word passes the legality test in the one pass that builds its
    occurrence index and re-signs it to its canonical representative;
    re-signing a symbol keeps every rule's applicability and commutes
    with every rule, so the rules chosen are those for u itself.  A step
    costs O(n) on n letters, the search O(n^2).
    """
    out = []
    w, occ = _scan(u._word)
    while w:
        kind, symbols, positions = _next_reduction_site(w, occ)
        out.append(StringRule(kind, symbols))
        w, occ = _scan(_KINDS[kind].kernel(w, *positions))
    return RuleSequence(tuple(out))


def _dual_sites(w: tuple[int, ...], occ: dict[int, tuple[int, int]]):
    # every dual rule matching the word, dspr by symbol, then dsdr by
    # symbol pair
    positive = []
    for p in sorted(occ):
        i, j = occ[p]
        if (w[i] < 0) == (w[j] < 0):
            yield "dspr", (p,), (i, j)
        else:
            positive.append(p)
    for p, q in combinations(positive, 2):
        site = _double_site("dsdr", occ, p, q)
        _, j1, i2, j2 = site[2]
        if j1 < i2 < j2:  # p and q overlap
            yield site


def applicable_dual_rules(u: LegalString) -> list[DualRule]:
    """Every dual rule instance matching u, deterministically ordered."""
    return [DualRule(kind, symbols) for kind, symbols, _ in _dual_sites(u._word, u._occ)]


def orbit(u: LegalString, max_size: int = 10000) -> frozenset[LegalString]:
    """All canonical representatives reachable from u by dual rules.

    Breadth-first closure over words (letters as signed ints): every
    image passes the legality test and is canonicalized under
    equivalence, in one pass, before deduplication, since re-signing
    alone never ends the search otherwise.  Members become LegalStrings
    once, at the end, with no second scan.  Raises OrbitLimitError
    exactly when the orbit has more than max_size members, and
    ValueError when max_size < 1.
    """
    if max_size < 1:
        raise ValueError(f"orbit budget must be at least 1, got {max_size}")
    start = _scan(u._word)
    seen = {start[0]: start[1]}  # canonical word -> its occurrence index
    queue = deque([start])
    while queue:
        w, occ = queue.popleft()
        for kind, _, positions in _dual_sites(w, occ):
            image = _scan(_KINDS[kind].kernel(w, *positions))
            if image[0] not in seen:
                if len(seen) >= max_size:
                    raise OrbitLimitError(f"orbit exceeds {max_size} members")
                seen[image[0]] = image[1]
                queue.append(image)
    return frozenset(_from_word(w, occ) for w, occ in seen.items())


def dual_equivalent(u: LegalString, v: LegalString) -> bool:
    """Whether u and v share a reduction graph up to isomorphism.

    Decided through graph canonical forms; the orbit enumeration above
    reaches the same verdict but takes exponential time.
    """
    return canonical_form(build_reduction_graph(u)) == canonical_form(build_reduction_graph(v))


__all__ = [
    "DualRule",
    "NotApplicableError",
    "OrbitLimitError",
    "RuleSequence",
    "StringRule",
    "applicable_dual_rules",
    "apply_dsdr",
    "apply_dspr",
    "apply_rule",
    "apply_sdr",
    "apply_sequence",
    "apply_snr",
    "apply_spr",
    "dual_equivalent",
    "format_rule_sequence",
    "orbit",
    "parse_rule",
    "parse_rule_sequence",
    "successful_reduction_search",
]
