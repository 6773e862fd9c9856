"""Exact arithmetic primitives shared by every other module.

Rationals are `fractions.Fraction` (always in lowest terms with positive
denominator); the serialized form is the string ``"p/q"``, or ``"p"`` alone
when the denominator is 1, so command-line output is bit-exact and diffable.
Lattice vectors are plain tuples of ints.  A vector of the orthant that
enters the program, a valuation, a fan ray or a vector to locate, is read
by ``orthant_vector`` and nowhere else, and a valuation by ``valuation``,
which adds that its entries are coprime.

The exact linear algebra of the package lives here too: one fraction-free
elimination (rank, and determinants past 3 x 3), the cofactor normal of
n - 1 rows, and the adjugate built from cofactor normals.  Cones in ``fans``
and polytopes in ``bounds`` call it; neither carries its own.

Every downstream decision (argmin choices, weight comparisons, chain
conditions) is made by exact comparison, so floating point is banned in this
package.

The package's value types are records: ``record`` turns a class whose
annotations name its fields into a frozen value with a constructor,
equality, hashing and a repr, all plain functions, so defining one compiles
no code at import.  ``trusted`` builds an instance of one without running
its validation, for values the package made itself.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul


class PreconditionError(ValueError):
    """A caller violated a documented precondition (CLI exit code 2)."""


class InvariantViolation(RuntimeError):
    """An internal mathematical invariant failed (CLI exit code 3)."""


def record(cls):
    """Make cls a frozen value record of the fields its own annotations name.

    The methods are closures over the field names, so nothing is compiled,
    and a method the class defines itself, such as an ``__init__``, is kept.
    ``__init__`` binds the fields by position or keyword, in annotation
    order.  A class attribute of a field's name is its default, copied per
    instance when it is a dict or list.  A missing or unknown field is a
    TypeError.  Then ``self.__post_init__()`` runs, looked up on each call,
    when the class has one.  Instances of one class are equal when their
    field tuples are, the hash is the field tuple's, and the repr reads
    ``Name(a=1, b=(2, 3))``.  Assigning or deleting an attribute raises
    AttributeError; ``object.__setattr__`` and ``cached_property`` still
    write the instance ``__dict__``.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = hasattr(cls, "__post_init__")

    def fields(self):
        return tuple([getattr(self, name) for name in names])

    def __init__(self, *args, **kwargs):
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{cls.__name__}() got too many, unknown or repeated fields")
        values = self.__dict__
        values.update(zip(names, args), **kwargs)
        for name in names:
            if name not in values:
                if name not in defaults:
                    raise TypeError(f"{cls.__name__}() missing field {name!r}")
                value = defaults[name]
                values[name] = value.copy() if isinstance(value, (dict, list)) else value
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({inner})"

    def frozen(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    methods = {
        "__init__": __init__,
        "__eq__": __eq__,
        "__hash__": lambda self: hash(fields(self)),
        "__repr__": __repr__,
        "__setattr__": frozen,
        "__delattr__": frozen,
    }
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def trusted(cls, **attrs):
    """An instance of the ``record`` class cls built without validation.

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
    """An integer input: an int (not a bool) or its decimal text.

    Anything else, a float or a bool among them, is bad input naming the key.
    """
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise PreconditionError(f"argument {key!r} must be an integer, got {value!r}")


def _digit_limit_error() -> PreconditionError:
    return PreconditionError(
        f"the result has an integer of more than {sys.get_int_max_str_digits()} "
        "digits, the limit of int-to-decimal conversion "
        "(sys.get_int_max_str_digits)"
    )


def checked_power(base: Fraction | int, k: int) -> Fraction | int:
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
    """Serialize a Fraction or an int as ``"p/q"`` in lowest terms (``"p"`` when q=1).

    A part past the digit limit is bad input: Python refuses to convert
    integers longer than ``sys.get_int_max_str_digits()`` digits (4300 by
    default) to decimal, and that limit is left as it is.
    """
    num, den = x.numerator, x.denominator
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError as exc:
        raise _digit_limit_error() from exc


def complement_weights(values) -> tuple:
    """(w, den): each 1 - x as an integer w_i over the least common denominator."""
    den = lcm(*(x.denominator for x in values))
    return tuple((x.denominator - x.numerator) * (den // x.denominator) for x in values), den


def parse_list(values, what: str):
    """``values`` when it is a list (or a tuple); anything else is bad input.

    A JSON string where a list belongs would otherwise be read one character
    at a time, so every reader of a JSON list goes through this check.
    """
    if not isinstance(values, (list, tuple)):
        raise PreconditionError(f"expected a list of {what}, got {values!r}")
    return values


def parse_rat_list(values) -> tuple[Fraction, ...]:
    return tuple(parse_rat(v) for v in parse_list(values, "rationals"))


def parse_int_list(values, key: str) -> tuple[int, ...]:
    return tuple(parse_int(v, key) for v in parse_list(values, f"integers for {key!r}"))


# ---------------------------------------------------------------------------
# vectors of the orthant


def orthant_vector(values, n: int, key: str) -> tuple:
    """A nonzero integer vector of the closed positive orthant of Z^n.

    The one reader of such vectors, from input or a library caller: a list
    or tuple of n entries, each read by ``parse_int`` (an int or its decimal
    text; a bool or a float is refused, naming key), none negative and not
    all zero.
    """
    vec = parse_int_list(values, key)
    if len(vec) != n:
        raise PreconditionError(f"{key!r} needs {n} entries, got {list(vec)}")
    if not any(vec) or min(vec) < 0:
        raise PreconditionError(
            f"{key!r} {list(vec)} is not a nonzero vector of the positive orthant"
        )
    return vec


def valuation(values, n: int, key: str) -> tuple:
    """A monomial valuation: an ``orthant_vector`` whose entries are coprime."""
    vec = orthant_vector(values, n, key)
    if gcd(*vec) != 1:
        raise PreconditionError(f"{key!r} {list(vec)} is not primitive")
    return vec


# ---------------------------------------------------------------------------
# exact linear algebra (small dense matrices)


def _eliminate(rows) -> tuple:
    """(rank, det) of an integer matrix by fraction-free elimination.

    Bareiss's elimination: after k pivots every entry still to be reduced is
    a (k+1)-minor of the input, so each division by the previous pivot is
    exact and the entries stay integers.  A column with no pivot is passed
    over.  det is 0 unless the matrix is square and of full rank.
    """
    m = [list(r) for r in rows]
    n = len(m)
    ncols = len(m[0]) if m else 0
    sign = prev = 1
    r = 0
    for c in range(ncols):
        for p in range(r, n):
            if m[p][c]:
                break
        else:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        top = m[r]
        piv = top[c]
        for i in range(r + 1, n):
            row = m[i]
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = (row[j] * piv - f * top[j]) // prev
        prev = piv
        r += 1
        if r == n:
            break
    return r, (sign * prev if r == n == ncols else 0)


def rank(rows) -> int:
    """Rank of an integer matrix."""
    return _eliminate(rows)[0]


def determinant(rows) -> int:
    """Determinant of a square integer matrix; a closed form up to 3 x 3."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n <= 3:
        return sum(map(mul, cofactor_normal(rows[:-1]), rows[-1]))
    return _eliminate(rows)[1]


def cofactor_normal(rows) -> tuple:
    """The signed maximal minors of n - 1 integer rows of length n.

    The vector N with N . x = det(rows + [x]) for every x: orthogonal to
    every row, and zero exactly when the rows are dependent.  No rows at all
    is the case n = 1, where N = (1,).
    """
    k = len(rows)
    if k == 0:
        return (1,)
    if k == 1:
        ((a, b),) = rows
        return (-b, a)
    if k == 2:
        (a, b, c), (d, e, f) = rows
        return (b * f - c * e, c * d - a * f, a * e - b * d)
    return tuple(
        (-1) ** (k + j) * determinant([r[:j] + r[j + 1 :] for r in rows])
        for j in range(k + 1)
    )


def adjugate(rows) -> tuple:
    """adj(A) of a square integer matrix A: adj(A) A = A adj(A) = det(A) I.

    Column k of adj(A) is orthogonal to every row of A but row k, and its
    product with row k is det(A): it is the cofactor normal of the other
    rows, with the sign of moving row k to the end.
    """
    n = len(rows)
    cols = []
    for k in range(n):
        normal = cofactor_normal(rows[:k] + rows[k + 1 :])
        cols.append(normal if (n - 1 - k) % 2 == 0 else tuple(-x for x in normal))
    return tuple(zip(*cols))

