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

import time
from typing import FrozenSet, Iterable, Optional

from .messages import Hashed, Record


class LimitExceeded(Exception):
    """A budget ran out, so the verdict is unknown: the package's one limit
    exception, defined in its lowest layer to stop on one, with the reason
    (``timeout while <phase>`` or a cap's diagnostic) as its message.  Only
    this module reads the clock for limits."""


def deadline_after(timeout: Optional[float]) -> Optional[float]:
    """The time.monotonic() reading timeout seconds from now; None for none."""
    return None if timeout is None else time.monotonic() + timeout


def check_deadline(deadline: Optional[float], phase: str, step: Optional[int] = None) -> None:
    """Past the deadline, raise LimitExceeded naming the phase (and step)."""
    if deadline is not None and time.monotonic() > deadline:
        raise LimitExceeded(f"timeout while {phase}" + ("" if step is None else f" step {step}"))


class Re(Hashed):  # derivatives look nodes up over and over
    __slots__ = ()

    def __init__(self) -> None:
        self._hash = None


class RSym(Re):
    __slots__ = ("letter",)

    def __init__(self, letter: int):
        self.letter, self._hash = letter, None


class RAny(Re):
    """Matches exactly one letter, whichever it is (including OTHER)."""

    __slots__ = ()


class REps(Re):
    __slots__ = ()


class REmpty(Re):
    __slots__ = ()


class RCat(Re):
    __slots__ = ("left", "right")

    def __init__(self, left: Re, right: Re):
        self.left, self.right, self._hash = left, right, None


class _Unary(Re):
    """The ``__init__`` of RStar and RNot, which each declare the slot
    inner, so that each class compares it."""

    __slots__ = ()

    def __init__(self, inner: Re):
        self.inner, self._hash = inner, None


class RStar(_Unary):
    __slots__ = ("inner",)


class RNot(_Unary):
    __slots__ = ("inner",)


class _Items(Re):
    """The ``__init__`` of ROr and RAnd, which each declare the slot items,
    so that each class compares it: a flat frozenset of at least two
    regexes, none of the node's own class."""

    __slots__ = ()

    def __init__(self, items: FrozenSet[Re]):
        self.items, self._hash = items, None


class ROr(_Items):
    __slots__ = ("items",)


class RAnd(_Items):
    __slots__ = ("items",)


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


class Dfa(Record):
    """A total deterministic automaton over letters 0..n_letters-1, with
    transitions[state][letter] the successor state; state 0 is the start."""

    __slots__ = ("n_letters", "transitions", "accepting")

    def __init__(self, n_letters: int, transitions: tuple[tuple[int, ...], ...],
                 accepting: tuple[bool, ...]):
        self.n_letters, self.transitions, self.accepting = n_letters, transitions, accepting

    @property
    def n_states(self) -> int:
        return len(self.transitions)


def build_dfa(regex: Re, n_letters: int, state_cap: int = 100000,
              deadline: Optional[float] = None) -> Dfa:
    """Iterated-derivative construction; states are canonical regexes.
    Raises DfaSizeError when more than state_cap states are reachable, and
    LimitExceeded past the deadline, read once every 1,024 states."""
    derivatives = Derivatives()
    index: dict[Re, int] = {regex: 0}
    order: list[Re] = [regex]
    transitions: list[tuple[int, ...]] = []
    pos = 0
    while pos < len(order):
        if pos & 1023 == 1023:
            check_deadline(deadline, "building the engine")
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
