from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import comb, gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from bdivkit.bounds import poly_eval, poly_times, unitary_order_poly
from bdivkit.exact import (
    PreconditionError,
    adjugate,
    cofactor_normal,
    determinant,
    format_rat,
    parse_rat,
    rank,
    record,
    trusted,
)

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)


def test_parse_format_roundtrip():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("-7") == Fraction(-7)
    assert format_rat(Fraction(3, 4)) == "3/4"
    assert format_rat(Fraction(8, 4)) == "2"
    assert parse_rat(5) == Fraction(5)


def test_parse_rejects_floats_and_junk():
    with pytest.raises(PreconditionError):
        parse_rat(0.5)
    with pytest.raises(PreconditionError):
        parse_rat("1/0")
    with pytest.raises(PreconditionError):
        parse_rat("abc")


@given(rationals)
def test_format_parse_identity(x):
    assert parse_rat(format_rat(x)) == x


@given(rationals, rationals)
def test_field_roundtrips(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a * b) / b == a


def primitive_part(v) -> tuple:
    """A nonzero integer vector divided by the gcd of its entries.

    The tests build valuations with it; the package never reduces a vector,
    since every vector it makes is primitive already.
    """
    vec = tuple(v)
    g = gcd(*vec)
    if g == 0:
        raise PreconditionError("zero vector has no primitive part")
    return tuple(e // g for e in vec)


def test_primitive_part_examples():
    assert primitive_part((2, 4)) == (1, 2)
    assert primitive_part((1, 1, 1)) == (1, 1, 1)
    # gcd(6,10,15)=1 even though pairwise gcds are not
    assert primitive_part((6, 10, 15)) == (6, 10, 15)


def test_primitive_part_zero_vector():
    with pytest.raises(PreconditionError, match="zero vector has no primitive part"):
        primitive_part((0, 0))


@given(st.lists(st.integers(-40, 40), min_size=1, max_size=5))
def test_primitive_part_idempotent(entries):
    if all(e == 0 for e in entries):
        return
    once = primitive_part(tuple(entries))
    assert primitive_part(once) == once


# ---------------------------------------------------------------------------
# the integer polynomials of bounds: coefficient tuples, constant term first


def test_poly_degree_examples():
    p = poly_times((1,), 3, -1)  # q^3 + 1
    assert p == (1, 0, 0, 1) and len(p) - 1 == 3
    assert len(poly_times(p, 2, 1)) - 1 == 5  # (q^2 - 1)(q^3 + 1)


def test_poly_eval_examples():
    p = poly_times((1,), 2, 1)  # q^2 - 1
    assert p == (-1, 0, 1) and poly_eval(p, 3) == 8
    assert poly_eval((), Fraction(7, 3)) == 0
    big = poly_times(poly_times((0, 0, 0, 1), 2, 1), 3, -1)  # q^3 (q^2 - 1)(q^3 + 1)
    assert big == (0, 0, 0, -1, 0, 1, -1, 0, 1)
    assert poly_eval(big, 3) == 27 * 8 * 28 == 6048


@given(
    st.lists(st.integers(-5, 5), min_size=0, max_size=4).map(tuple),
    st.integers(1, 4),
    st.integers(-3, 3),
    st.integers(-6, 6),
)
def test_poly_eval_multiplicative(p, i, s, x):
    assert poly_eval(poly_times(p, i, s), x) == poly_eval(p, x) * (x**i - s)


def test_unitary_poly_equals_the_direct_product_at_degree_plus_one_points():
    # two integer polynomials of degree d that agree at d + 1 points are equal,
    # so this pins every coefficient
    for n in range(1, 33):
        poly, _ = unitary_order_poly(n)
        d = len(poly) - 1
        assert d == comb(n + 2, 2) + comb(n + 3, 2) - 1 and poly[-1] == 1
        for x in range(-(d // 2), d - d // 2 + 1):
            direct = x ** comb(n + 2, 2)
            for i in range(2, n + 3):
                direct *= x**i - (-1) ** i
            assert poly_eval(poly, x) == direct, (n, x)


# ---------------------------------------------------------------------------
# the linear-algebra kernel against the Gauss-Jordan eliminations over
# Fractions that fans and bounds each carried before it, kept here as the
# references, and the Leibniz formula for determinants


def leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def _rank(rows) -> int:
    """Rank by exact Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for i in range(row, len(m)):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


def _solve_square(rows, rhs):
    """Exact solution of a square rational system, or None if singular."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return tuple(m[i][n] for i in range(n))


def _null_direction(rows):
    """An integer spanning vector of a corank-1 null space, or None."""
    n = len(rows[0])
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][col]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    f = free[0]
    vec = [Fraction(0)] * n
    vec[f] = Fraction(1)
    for row_idx, col in enumerate(pivots):
        vec[col] = -m[row_idx][f]
    denom = lcm(*(x.denominator for x in vec))
    ints = tuple(int(x * denom) for x in vec)
    return ints


@st.composite
def int_matrices(draw, rows=None, cols=None):
    """An integer matrix of 1-6 rows and columns, often singular or of low
    rank: a random one, one with a row repeated or zeroed, or a product of
    random factors through an inner dimension below the size."""
    n = draw(st.integers(1, 6)) if rows is None else rows
    k = draw(st.integers(1, 6)) if cols is None else cols
    entry = st.integers(-9, 9)

    def block(r, c):
        return [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(r)]

    kind = draw(st.sampled_from(["random", "repeat", "zero", "low rank"]))
    if kind == "low rank":
        inner = draw(st.integers(0, min(n, k)))
        a, b = block(n, inner), block(inner, k)
        return [tuple(sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(k))
                for i in range(n)]
    m = [tuple(r) for r in block(n, k)]
    if n > 1 and kind != "random":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
        m[j if j < i else j + 1] = m[i] if kind == "repeat" else (0,) * k
    return m


square_matrices = st.integers(1, 6).flatmap(lambda n: int_matrices(rows=n, cols=n))


@settings(max_examples=300, deadline=None)
@given(square_matrices)
def test_determinant_matches_leibniz(m):
    assert determinant(m) == leibniz_det(m)
    assert determinant(tuple(m)) == determinant([list(r) for r in m])


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_rank_matches_gauss_jordan(m):
    assert rank(m) == _rank(m)


@settings(max_examples=300, deadline=None)
@given(square_matrices)
def test_adjugate_is_the_transposed_cofactor_matrix(m):
    n = len(m)
    adj = adjugate(m)
    d = leibniz_det(m)
    eye = [[d if i == j else 0 for j in range(n)] for i in range(n)]
    assert [[sum(adj[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)] == eye
    assert [[sum(m[i][t] * adj[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)] == eye
    for i in range(n):
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for k, r in enumerate(m) if k != i]
            assert adj[j][i] == (-1) ** (i + j) * (leibniz_det(minor) if minor else 1)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    int_matrices(rows=n - 1, cols=n) if n > 1 else st.just([]),
    st.lists(st.integers(-9, 9), min_size=n, max_size=n))))
def test_cofactor_normal_spans_the_null_space(rows_x):
    rows, x = rows_x
    n = len(x)
    normal = cofactor_normal(rows)
    assert len(normal) == n
    assert sum(a * b for a, b in zip(normal, x)) == leibniz_det(list(rows) + [tuple(x)])
    for row in rows:
        assert sum(a * b for a, b in zip(normal, row)) == 0
    if n > 1 and _rank(rows) < n - 1:
        assert not any(normal)
        return
    assert any(normal)
    if n > 1:  # a multiple of the reference's spanning vector
        ref = _null_direction(rows)
        i = next(i for i, r in enumerate(ref) if r)
        assert [a * ref[i] for a in normal] == [normal[i] * r for r in ref]


def test_kernel_examples():
    assert determinant([[2, 1], [1, 1]]) == 1
    assert determinant([[0, 1], [1, 0]]) == -1
    assert cofactor_normal([]) == (1,)
    assert cofactor_normal([(1, 2)]) == (-2, 1)
    assert cofactor_normal([(1, 0, 0), (0, 1, 0)]) == (0, 0, 1)
    assert adjugate([[3]]) == ((1,),)
    assert adjugate([[1, 2], [3, 4]]) == ((4, -2), (-3, 1))
    assert rank([]) == 0 and rank([[0, 0]]) == 0


# ---------------------------------------------------------------------------
# record against a frozen dataclass twin


@record
class _Point:
    x: int
    y: tuple = (0,)


@dataclass(frozen=True)
class _PointTwin:
    x: int
    y: tuple = (0,)


@record
class _Notes:
    kind: str
    notes: dict = {}


@dataclass(frozen=True)
class _NotesTwin:
    kind: str
    notes: dict = field(default_factory=dict)


@record
class _Checked:
    x: int

    def __post_init__(self):
        object.__setattr__(self, "x", int(self.x))

    @cached_property
    def double(self):
        return 2 * self.x


@dataclass(frozen=True)
class _CheckedTwin:
    x: int

    def __post_init__(self):
        object.__setattr__(self, "x", int(self.x))


def _bind(cls, args, kwargs):
    try:
        obj = cls(*args, **kwargs)
    except TypeError:
        return TypeError
    return obj.x, obj.y


_FIELD_VALUES = st.one_of(st.integers(-3, 3), st.tuples(st.integers(-3, 3)))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_FIELD_VALUES, max_size=3),
    st.dictionaries(st.sampled_from(["x", "y", "z"]), _FIELD_VALUES, max_size=3),
)
def test_record_binds_arguments_as_a_frozen_dataclass(args, kwargs):
    assert _bind(_Point, args, kwargs) == _bind(_PointTwin, args, kwargs)


@settings(max_examples=300, deadline=None)
@given(st.integers(-3, 3), _FIELD_VALUES, st.integers(-3, 3), _FIELD_VALUES)
def test_record_equality_hash_and_repr_match_a_frozen_dataclass(x, y, u, v):
    a, b = _Point(x, y), _Point(u, v)
    ta, tb = _PointTwin(x, y), _PointTwin(u, v)
    assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
    assert hash(a) == hash(ta) and hash(b) == hash(tb)
    assert a != ta and _Point(x) == _Point(x, (0,)) == _Point(y=(0,), x=x)
    assert repr(a) == "_Point" + repr(ta)[len("_PointTwin"):]
    with pytest.raises(TypeError):
        hash(_Notes("k"))
    assert repr(_Notes("k", {1: 2})) == "_Notes(kind='k', notes={1: 2})"


def test_record_copies_dict_defaults_per_instance():
    for cls in (_Notes, _NotesTwin):
        first, second = cls("a"), cls("a")
        first.notes["key"] = 1
        assert second.notes == {} and first.notes == {"key": 1}
        assert cls("a", {"k": 2}).notes == {"k": 2}


def test_record_refuses_assignment_and_deletion():
    for obj in (_Point(1), _PointTwin(1)):
        for name in ("x", "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 2)
        with pytest.raises(AttributeError):
            del obj.x
        assert obj.x == 1


def test_record_finds_post_init_at_call_time(monkeypatch):
    for cls in (_Checked, _CheckedTwin):
        calls = []
        original = cls.__post_init__

        def counted(self, original=original):
            calls.append(self)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
        obj = cls(True)
        assert calls == [obj] and type(obj.x) is int
    assert _Checked(3).double == 6


def test_record_keeps_an_own_init_and_trusted_skips_it():
    @record
    class Scaled:
        value: int

        def __init__(self, raw):
            object.__setattr__(self, "value", 10 * raw)

    assert Scaled(2) == trusted(Scaled, value=20)
    assert repr(Scaled(2)).endswith(".<locals>.Scaled(value=20)")
    assert trusted(_Checked, x="7").x == "7"
