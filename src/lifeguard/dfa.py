"""Regular expressions over a finite letter alphabet, compiled to total
DFAs via Brzozowski derivatives.

Derivatives handle complement and intersection natively, so the compiler
needs no separate NFA/product/complementation passes.  Letters are integer
indices; the caller reserves the last index for the OTHER class covering
every message outside the ground alphabet.  Termination of the state
exploration relies on the smart constructors normalizing union/intersection
to flat frozensets, which equate regexes up to associativity, commutativity
and idempotence of + and &.

Each build_dfa call memoises nullability and derivatives in its own
Derivatives object; the module keeps no cache, so memory is released when
the construction ends and repeated constructions cost the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable


class Re:
    __slots__ = ()


@dataclass(frozen=True)
class RSym(Re):
    letter: int


@dataclass(frozen=True)
class RAny(Re):
    """Matches exactly one letter, whichever it is (including OTHER)."""


@dataclass(frozen=True)
class REps(Re):
    pass


@dataclass(frozen=True)
class REmpty(Re):
    pass


@dataclass(frozen=True)
class RCat(Re):
    left: Re
    right: Re


@dataclass(frozen=True)
class RStar(Re):
    inner: Re


@dataclass(frozen=True)
class ROr(Re):
    items: FrozenSet[Re]  # flat frozensets: no item is itself an ROr; len >= 2


@dataclass(frozen=True)
class RAnd(Re):
    items: FrozenSet[Re]


@dataclass(frozen=True)
class RNot(Re):
    inner: Re


EPS = REps()
EMPTY = REmpty()
ANY = RAny()
UNIVERSAL = RNot(EMPTY)  # accepts every word


def mk_cat(left: Re, right: Re) -> Re:
    if isinstance(left, REmpty) or isinstance(right, REmpty):
        return EMPTY
    if isinstance(left, REps):
        return right
    if isinstance(right, REps):
        return left
    if isinstance(left, RCat):  # right-associate for canonical form
        return mk_cat(left.left, mk_cat(left.right, right))
    return RCat(left, right)


def mk_star(inner: Re) -> Re:
    if isinstance(inner, (REps, REmpty)):
        return EPS
    if isinstance(inner, RStar):
        return inner
    return RStar(inner)


def _flat(items: Iterable[Re], node: type) -> FrozenSet[Re]:
    """The items as one set, with each node's items in place of the node;
    those are flat already, so one level suffices."""
    return frozenset().union(*(r.items if isinstance(r, node) else (r,) for r in items))


def mk_or(items: Iterable[Re]) -> Re:
    flat = _flat(items, ROr) - {EMPTY}
    if UNIVERSAL in flat:
        return UNIVERSAL
    if len(flat) > 1:
        return ROr(flat)
    return next(iter(flat), EMPTY)


def mk_and(items: Iterable[Re]) -> Re:
    flat = _flat(items, RAnd) - {UNIVERSAL}
    if EMPTY in flat:
        return EMPTY
    if len(flat) > 1:
        return RAnd(flat)
    return next(iter(flat), UNIVERSAL)


def mk_not(inner: Re) -> Re:
    if isinstance(inner, RNot):
        return inner.inner
    return RNot(inner)


class Derivatives:
    """Nullability and derivatives, memoised for one DFA construction.

    The memo belongs to the instance, so it is freed with it: nothing
    outlives a build_dfa call, and a construction never depends on what
    was compiled before it."""

    __slots__ = ("_nullable", "_deriv")

    def __init__(self) -> None:
        self._nullable: dict[Re, bool] = {}
        self._deriv: dict[tuple[Re, int], Re] = {}

    def nullable(self, r: Re) -> bool:
        hit = self._nullable.get(r)
        if hit is None:
            hit = self._nullable[r] = self._compute_nullable(r)
        return hit

    def _compute_nullable(self, r: Re) -> bool:
        if isinstance(r, (REps, RStar)):
            return True
        if isinstance(r, (RSym, RAny, REmpty)):
            return False
        if isinstance(r, RCat):
            return self.nullable(r.left) and self.nullable(r.right)
        if isinstance(r, ROr):
            return any(self.nullable(i) for i in r.items)
        if isinstance(r, RAnd):
            return all(self.nullable(i) for i in r.items)
        if isinstance(r, RNot):
            return not self.nullable(r.inner)
        raise TypeError(type(r).__name__)

    def deriv(self, r: Re, letter: int) -> Re:
        key = (r, letter)
        hit = self._deriv.get(key)
        if hit is None:
            hit = self._deriv[key] = self._compute_deriv(r, letter)
        return hit

    def _compute_deriv(self, r: Re, letter: int) -> Re:
        if isinstance(r, RSym):
            return EPS if r.letter == letter else EMPTY
        if isinstance(r, RAny):
            return EPS
        if isinstance(r, (REps, REmpty)):
            return EMPTY
        if isinstance(r, RCat):
            first = mk_cat(self.deriv(r.left, letter), r.right)
            if self.nullable(r.left):
                return mk_or((first, self.deriv(r.right, letter)))
            return first
        if isinstance(r, RStar):
            return mk_cat(self.deriv(r.inner, letter), r)
        if isinstance(r, ROr):
            return mk_or(self.deriv(i, letter) for i in r.items)
        if isinstance(r, RAnd):
            return mk_and(self.deriv(i, letter) for i in r.items)
        if isinstance(r, RNot):
            return mk_not(self.deriv(r.inner, letter))
        raise TypeError(type(r).__name__)


class DfaSizeError(RuntimeError):
    """The construction reached more states than its cap allows."""


@dataclass(frozen=True)
class Dfa:
    """A total deterministic automaton over letters 0..n_letters-1."""

    n_letters: int
    transitions: tuple[tuple[int, ...], ...]  # transitions[state][letter]
    accepting: tuple[bool, ...]
    start: int = 0

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def accepts(self, word: Iterable[int]) -> bool:
        state = self.start
        for letter in word:
            state = self.transitions[state][letter]
        return self.accepting[state]


def build_dfa(regex: Re, n_letters: int, state_cap: int = 100000) -> Dfa:
    """Iterated-derivative construction; states are canonical regexes.
    Raises DfaSizeError when more than state_cap states are reachable."""
    derivatives = Derivatives()
    index: dict[Re, int] = {regex: 0}
    order: list[Re] = [regex]
    transitions: list[tuple[int, ...]] = []
    pos = 0
    while pos < len(order):
        current = order[pos]
        row = []
        for letter in range(n_letters):
            nxt = derivatives.deriv(current, letter)
            sid = index.get(nxt)
            if sid is None:
                sid = len(order)
                if sid > state_cap:
                    raise DfaSizeError(f"DFA construction exceeded {state_cap} states")
                index[nxt] = sid
                order.append(nxt)
            row.append(sid)
        transitions.append(tuple(row))
        pos += 1
    accepting = tuple(derivatives.nullable(r) for r in order)
    return Dfa(n_letters, tuple(transitions), accepting)
