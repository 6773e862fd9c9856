"""Exact arithmetic primitives shared by every other module.

Rationals are `fractions.Fraction` (always in lowest terms with positive
denominator); the serialized form is the string ``"p/q"``, or ``"p"`` alone
when the denominator is 1, so command-line output is bit-exact and diffable.
Lattice vectors are plain tuples of ints.  Univariate polynomials keep
Fraction coefficients indexed by degree.

Every downstream decision (argmin choices, weight comparisons, chain
conditions) is made by exact comparison, so floating point is banned in this
package.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


class PreconditionError(ValueError):
    """A caller violated a documented precondition (CLI exit code 2)."""


class InvariantViolation(RuntimeError):
    """An internal mathematical invariant failed (CLI exit code 3)."""


def trusted(cls, **attrs):
    """An instance of the frozen dataclass cls built without validation.

    For values the package made itself from data already validated: attrs
    holds every field, and optionally the values of cached properties, which
    are seeded as they are.  ``__init__`` and ``__post_init__`` do not run,
    so nothing is checked or normalised.  Input from outside the program goes
    through the public constructor instead.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(attrs)
    return obj


# ---------------------------------------------------------------------------
# rationals


def parse_rat(value) -> Fraction:
    """Parse ``"p/q"`` (or ``"p"``, or an int) into an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise PreconditionError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise PreconditionError("floats are not accepted; pass a 'p/q' string")
    text = str(value).strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"not a rational: {value!r}") from exc


def parse_int(value, key: str) -> int:
    """An integer input; anything int() rejects is bad input, naming the key."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(
            f"argument {key!r} must be an integer, got {value!r}"
        ) from exc


def _digit_limit_error() -> PreconditionError:
    return PreconditionError(
        f"the result has an integer of more than {sys.get_int_max_str_digits()} "
        "digits, the limit of int-to-decimal conversion "
        "(sys.get_int_max_str_digits)"
    )


def format_int(x: int) -> str:
    """Decimal text of an integer; one too long to convert is bad input.

    Python refuses to convert integers longer than ``sys.get_int_max_str_digits()``
    digits (4300 by default) to decimal; that limit is left as it is.
    """
    try:
        return str(x)
    except ValueError as exc:
        raise _digit_limit_error() from exc


def checked_power(base: Fraction, k: int) -> Fraction:
    """base ** k for a result to be printed, refused before it is computed
    when its numerator or denominator must pass the digit limit.

    An integer of b bits has k (b - 1) + 1 bits or more in its k-th power,
    and 2^x >= 10^y when x >= y log2(10).  The test refuses only powers with
    more than twice the limit's digits: multiplying by an input, whose parts
    have at most the limit's digits, cannot cancel such a power back under
    the limit, so every refused result would have failed to print, and the
    largest power computed has about twice the limit's digits.
    """
    limit = sys.get_int_max_str_digits()
    bits = max(base.numerator.bit_length(), base.denominator.bit_length()) - 1
    if limit and k * bits * 1000 > 6644 * limit:  # 6.644 > 2 log2(10)
        raise _digit_limit_error()
    return base**k


def format_rat(x) -> str:
    """Serialize a rational as ``"p/q"`` in lowest terms (``"p"`` when q=1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return format_int(x.numerator)
    return f"{format_int(x.numerator)}/{format_int(x.denominator)}"


def complement_weights(values) -> tuple:
    """(w, den): each 1 - x as an integer w_i over the least common denominator."""
    den = lcm(*(x.denominator for x in values))
    return tuple((x.denominator - x.numerator) * (den // x.denominator) for x in values), den


def parse_rat_list(values) -> tuple[Fraction, ...]:
    if not isinstance(values, (list, tuple)):
        raise PreconditionError(f"expected a list of rationals, got {values!r}")
    return tuple(parse_rat(v) for v in values)


def format_rat_list(values) -> list[str]:
    return [format_rat(v) for v in values]


# ---------------------------------------------------------------------------
# lattice vectors

LatticeVec = tuple


def lattice_vec(entries) -> LatticeVec:
    """Validate and freeze an integer vector of dimension >= 1."""
    try:
        vec = tuple(entries)
    except TypeError as exc:
        raise PreconditionError(f"a lattice vector must be a list, got {entries!r}") from exc
    if not vec:
        raise PreconditionError("lattice vector needs dimension >= 1")
    for e in vec:
        if isinstance(e, bool) or not isinstance(e, int):
            raise PreconditionError(f"lattice vector entries must be ints, got {e!r}")
    return vec


def primitive_part(v) -> LatticeVec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    vec = lattice_vec(v)
    g = 0
    for e in vec:
        g = gcd(g, abs(e))
    if g == 0:
        raise PreconditionError("zero vector has no primitive part")
    if g == 1:
        return vec
    return tuple(e // g for e in vec)


def is_primitive(v) -> bool:
    vec = tuple(v)
    g = 0
    for e in vec:
        g = gcd(g, abs(e))
    return g == 1


# ---------------------------------------------------------------------------
# univariate polynomials


class _MinusInfinity:
    """Degree of the zero polynomial; compares below every integer."""

    __slots__ = ()

    def __lt__(self, other):
        return other is not MINUS_INFINITY

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is MINUS_INFINITY

    def __repr__(self):
        return "-oo"


MINUS_INFINITY = _MinusInfinity()


@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial with exact rational coefficients.

    ``coeffs[k]`` is the coefficient of degree k; trailing zeros are trimmed
    at construction, so the zero polynomial has an empty coefficient tuple.
    """

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((Fraction(1),))

    @classmethod
    def monomial(cls, coeff, degree: int) -> "UniPoly":
        if degree < 0:
            raise PreconditionError("monomial degree must be >= 0")
        return cls((Fraction(0),) * degree + (Fraction(coeff),))

    @classmethod
    def from_ints(cls, coeffs) -> "UniPoly":
        return cls(tuple(Fraction(c) for c in coeffs))

    @property
    def degree(self):
        """Index of the highest nonzero coefficient; -oo for the zero polynomial."""
        if not self.coeffs:
            return MINUS_INFINITY
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval(self, x) -> Fraction:
        """Exact Horner evaluation."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(tuple(out))

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(tuple(out))

    def to_strings(self) -> list[str]:
        """JSON form: coefficient strings, constant term first."""
        return [format_rat(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, items) -> "UniPoly":
        return cls(tuple(parse_rat(s) for s in items))
