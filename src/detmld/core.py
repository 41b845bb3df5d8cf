"""Foundational exact types: rationals, determinantal pairs, extended partitions, mld values.

All values are immutable and hashable, so they are safe to share freely.
Rational numbers are ``fractions.Fraction`` throughout (always in canonical
form: positive denominator, reduced).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering
from itertools import accumulate
from math import lcm
from typing import Iterable, Iterator, Union


class PreconditionError(ValueError):
    """An argument violates a documented precondition of the operation."""


def _check_int(name: str, value, low: int = 0, high: int | None = None) -> None:
    """Reject a size, count or index that is not an `int` (a bool is not one)
    or lies outside low..high; with high None there is no upper limit."""
    if type(value) is not int or value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise PreconditionError(f"{name} must be an integer {bound}, got {value!r}")


def _check_type(name: str, value, cls: type) -> None:
    """Reject an argument that is not an instance of cls."""
    if not isinstance(value, cls):
        raise PreconditionError(f"{name} must be a {cls.__name__}, got {value!r}")


def _as_tuple(name: str, value) -> tuple:
    """The items of an iterable argument as a tuple; anything else is rejected."""
    try:
        return tuple(value)
    except TypeError:
        raise PreconditionError(f"{name} must be a sequence, got {value!r}") from None


def _as_rational(name: str, value) -> Fraction:
    """An exact coefficient: a Fraction, or an int (a bool is not one) as a
    Fraction.  A str or a float is rejected rather than parsed or expanded."""
    if type(value) is Fraction:
        return value
    if type(value) is not int:
        raise PreconditionError(f"{name} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


class _Infinity:
    """Formal infinity: larger than every integer, absorbing under + and *.

    A distinct singleton rather than a sentinel integer, so that ordering
    and arithmetic against ordinary ints are total and explicit.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INF"

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash(("detmld", "INF"))

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is self

    def __gt__(self, other) -> bool:
        return other is not self

    def __ge__(self, other) -> bool:
        return True

    def __add__(self, other):
        if isinstance(other, (int, _Infinity)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if other is self:
            return self
        if isinstance(other, int):
            if other <= 0:
                raise ArithmeticError(f"{other} * INF is undefined here")
            return self
        return NotImplemented

    __rmul__ = __mul__


INF = _Infinity()

Entry = Union[int, _Infinity]


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"not a rational number: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    """Serialize a Fraction as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    return str(x)


def _as_entry(value) -> Entry:
    """A partition entry: a natural, or INF (also written "inf", as in to_json)."""
    if value is INF or isinstance(value, str) and value.strip().lower() == "inf":
        return INF
    _check_int("partition entry", value)
    return value


@dataclass(frozen=True)
class ExtendedPartition:
    """A nonincreasing tuple over the naturals extended by INF.

    Indexes an orbit of arcs: the orbit of the diagonal matrix with entries
    t**entries[0], ..., t**entries[m-1].
    """

    entries: tuple

    def __post_init__(self):
        entries = tuple(_as_entry(e) for e in _as_tuple("partition entries", self.entries))
        object.__setattr__(self, "entries", entries)
        for a, b in zip(entries, entries[1:]):
            if not a >= b:
                raise PreconditionError(f"entries must be nonincreasing: {entries}")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def to_json(self) -> list:
        return ["inf" if e is INF else e for e in self.entries]

    @classmethod
    def from_json(cls, data: Iterable) -> "ExtendedPartition":
        return cls(tuple(data))


def new_partition(entries: Iterable) -> ExtendedPartition:
    """Validating constructor; rejects any left-to-right increase."""
    return ExtendedPartition(tuple(entries))


def _trusted_partition(entries: tuple) -> ExtendedPartition:
    """An ExtendedPartition from a tuple of naturals and INF that is
    nonincreasing by construction, without the checks of __post_init__."""
    lam = object.__new__(ExtendedPartition)
    object.__setattr__(lam, "entries", entries)
    return lam


# Largest rank bound k a pair accepts: a pair stores k coefficients.
MAX_RANK = 100_000

_ZERO = Fraction(0)


@dataclass(frozen=True)
class DeterminantalPair:
    """The data (m, k, alphas) of a pair: the rank <= k locus of m x m matrices,
    weighted by the formal sum of its rank <= k-i subloci with coefficients alphas[i-1].

    Coefficients are exact rationals; every criterion downstream is a finite
    linear inequality in their prefix sums.  The pair computes those once, in
    integers over the lcm D of the coefficient denominators: _scaled_prefix[j]
    is D * (alpha_1 + ... + alpha_j), so the closed forms compare and sum
    integers and make a Fraction only for a value they return.
    """

    m: int
    k: int
    alphas: tuple
    _denominator: int = field(init=False, repr=False, compare=False)
    _scaled_prefix: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_int("m", self.m, 1)
        _check_int("k", self.k, 1)
        if self.k > self.m:
            raise PreconditionError(f"rank bound k={self.k} exceeds matrix size m={self.m}")
        if self.k > MAX_RANK:
            raise PreconditionError(f"rank bound k={self.k} exceeds the supported {MAX_RANK}")
        alphas = tuple(_as_rational("coefficient", a) for a in self.alphas)
        if len(alphas) != self.k:
            raise PreconditionError(
                f"need exactly k={self.k} coefficients, got {len(alphas)}"
            )
        denominator = lcm(*(a.denominator for a in alphas))
        scaled = (a.numerator * (denominator // a.denominator) for a in alphas)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "_denominator", denominator)
        object.__setattr__(self, "_scaled_prefix", tuple(accumulate(scaled, initial=0)))

    def alpha_prefix(self, j: int) -> Fraction:
        """Sum of the first j >= 0 coefficients (all of them when j > k), in O(1)."""
        _check_int("prefix length j", j)
        return Fraction(self._scaled_prefix[min(j, self.k)], self._denominator)


def new_pair(m: int, k: int, alphas: Iterable = ()) -> DeterminantalPair:
    """Build a pair; coefficient lists shorter than k are right-padded with zeros.

    The pair's constructor converts the coefficients to Fraction and makes
    every check; padding waits until k is known to be at most m and
    MAX_RANK, so an out-of-range k is rejected before any allocation of size k.
    The padding is one shared Fraction(0), which the constructor keeps as is.
    """
    alphas = _as_tuple("coefficients", alphas)
    if type(m) is int and type(k) is int and k <= min(m, MAX_RANK):
        alphas += (_ZERO,) * (k - len(alphas))
    return DeterminantalPair(m, k, alphas)


@total_ordering
class MldValue:
    """An exact rational value or negative infinity.

    NEG_INFINITY compares strictly below every finite value.
    """

    __slots__ = ("_value",)

    NEG_INFINITY: "MldValue"

    def __init__(self, value):
        self._value = None if value is None else _as_rational("mld value", value)

    @classmethod
    def finite(cls, value) -> "MldValue":
        if value is None:
            raise PreconditionError("finite mld value cannot be None")
        return cls(value)

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    @property
    def value(self) -> Fraction:
        if self._value is None:
            raise PreconditionError("negative infinity has no finite value")
        return self._value

    def __eq__(self, other) -> bool:
        if not isinstance(other, MldValue):
            return NotImplemented
        return self._value == other._value

    def __hash__(self) -> int:
        return hash(("MldValue", self._value))

    def __lt__(self, other) -> bool:
        if not isinstance(other, MldValue):
            return NotImplemented
        if self._value is None:
            return other._value is not None
        if other._value is None:
            return False
        return self._value < other._value

    def __repr__(self) -> str:
        return f"MldValue({self})"

    def __str__(self) -> str:
        return "-inf" if self._value is None else format_rational(self._value)


MldValue.NEG_INFINITY = MldValue(None)
