from fractions import Fraction as F
from itertools import combinations
from math import comb, factorial, lcm

import pytest
from hypothesis import given, settings, strategies as st

from bdivkit.bounds import (
    Polytope,
    char_p_ratio_report,
    curve_power_report,
    effective_constants,
    fermat_report,
    fermat_threshold_scan,
    hurwitz_report,
    is_prime_power,
    min_volume_candidate,
    poly_eval,
    polytope_volume,
    projective_space_log_volume,
    sylvester,
    sylvester_coeffs,
    unitary_order_poly,
    unitary_order_value,
)
from bdivkit.cli import _polygon_area
from bdivkit.exact import InvariantViolation, PreconditionError
from test_exact import _null_direction, _rank, _solve_square, leibniz_det


def test_sylvester_terms():
    assert sylvester(4) == (1, 2, 6, 42, 1806)
    long = sylvester(8)
    for i in range(1, len(long)):
        assert long[i] == long[i - 1] * (long[i - 1] + 1)
        prod = 1
        for j in range(i):
            prod *= long[j] + 1
        assert long[i] == prod


def test_sylvester_growth_is_doubly_exponential_in_spirit():
    # r_k eventually dwarfs 2^(2^k); reported as a sanity check, not asserted
    # as an asymptotic statement
    terms = sylvester(6)
    assert terms[4] > 2 ** (2**3)
    assert terms[6] > 2 ** (2**5)


def test_min_volume_candidate():
    assert min_volume_candidate(1) == F(1, 42)
    assert min_volume_candidate(2) == F(1, 1806**2)
    assert min_volume_candidate(3) == F(1, 3263442**3)


def test_pn_log_volume_examples():
    assert projective_space_log_volume(1, [F(1, 2), F(2, 3), F(6, 7)]) == F(1, 42)
    n = 3
    assert projective_space_log_volume(n, [F(1)] * (n + 2)) == 1
    assert (
        projective_space_log_volume(2, [F(1, 2), F(2, 3), F(6, 7), F(42, 43)])
        == F(1, 1806**2)
    )
    with pytest.raises(PreconditionError):
        projective_space_log_volume(2, [F(1, 2)] * 3)  # wrong count


def test_partial_fraction_identity():
    # sum 1/(r_i + 1) = 1 - 1/r_{k+1}, the mechanism behind the volumes
    for k in range(1, 6):
        terms = sylvester(k + 1)
        total = sum((F(1, r + 1) for r in terms[: k + 1]), F(0))
        assert total == 1 - F(1, terms[k + 1])


def test_pn_matches_min_volume_candidate():
    for n in range(1, 5):
        assert projective_space_log_volume(
            n, sylvester_coeffs(n)
        ) == min_volume_candidate(n)


def test_polytope_simplex_volumes():
    for n in range(1, 5):
        for d in range(1, 11):
            vol = polytope_volume(Polytope.simplex(n, d))
            assert factorial(n) * vol == d**n


def test_polytope_examples():
    square = Polytope(n=2, normals=((1, 0), (-1, 0), (0, 1), (0, -1)), offsets=(0, 1, 0, 1))
    assert polytope_volume(square) == 1
    cube = Polytope(
        n=3,
        normals=((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
        offsets=(0, 2, 0, 2, 0, 2),
    )
    assert polytope_volume(cube) == 8
    clipped = Polytope(
        n=2,
        normals=((1, 0), (0, 1), (-1, -1), (-1, 0)),
        offsets=(0, 0, 1, F(1, 2)),
    )
    assert polytope_volume(clipped) == F(3, 8)


def test_polytope_2d_sweep_oracle():
    # independent check: integrate the width over x-breakpoints exactly
    clipped = Polytope(
        n=2,
        normals=((1, 0), (0, 1), (-1, -1), (-1, 0)),
        offsets=(0, 0, 1, F(1, 2)),
    )

    def width(x):
        # y >= 0 and y <= 1 - x within 0 <= x <= 1/2
        return max(F(0), 1 - x)

    xs = [F(0), F(1, 4), F(1, 2)]
    area = F(0)
    for a, b in zip(xs, xs[1:]):
        area += (width(a) + width(b)) / 2 * (b - a)  # width is affine on [a,b]
    assert polytope_volume(clipped) == area == F(3, 8)


def test_polytope_degenerate_cases():
    empty = Polytope(n=2, normals=((1, 0), (0, 1), (-1, -1)), offsets=(0, 0, -3))
    assert polytope_volume(empty) == 0
    flat = Polytope(
        n=2, normals=((1, 0), (-1, 0), (0, 1), (0, -1)), offsets=(0, 0, 0, 2)
    )
    assert polytope_volume(flat) == 0
    with pytest.raises(PreconditionError):
        polytope_volume(
            Polytope(n=2, normals=((1, 0), (0, 1), (1, 1)), offsets=(0, 0, 4))
        )
    with pytest.raises(PreconditionError):
        Polytope(n=5, normals=((1,) * 5,) * 6, offsets=(0,) * 6)


# ---------------------------------------------------------------------------
# vertex enumeration and volume against the Fraction elimination path they
# replaced, kept here as the reference


def _reference_vertices(poly):
    n = poly.n
    rows = poly.normals
    if n == 1:
        has_upper = any(r[0] < 0 for r in rows)
        has_lower = any(r[0] > 0 for r in rows)
        if not (has_upper and has_lower):
            raise PreconditionError("polytope is unbounded")
    else:
        for subset in combinations(range(len(rows)), n - 1):
            mat = [rows[i] for i in subset]
            if _rank(mat) != n - 1:
                continue
            direction = _null_direction(mat)
            if direction is None:
                continue
            for cand in (direction, tuple(-x for x in direction)):
                if all(sum(a * x for a, x in zip(row, cand)) >= 0 for row in rows):
                    raise PreconditionError("polytope is unbounded")
    verts = {}
    for subset in combinations(range(len(rows)), n):
        pt = _solve_square([rows[i] for i in subset], [-poly.offsets[i] for i in subset])
        if pt is None:
            continue
        if all(sum(a * x for a, x in zip(row, pt)) >= -off
               for row, off in zip(rows, poly.offsets)):
            verts.setdefault(pt, set()).update(subset)
    out = []
    for pt in sorted(verts):
        active = frozenset(
            i for i, (row, off) in enumerate(zip(rows, poly.offsets))
            if sum(a * x for a, x in zip(row, pt)) == -off
        )
        out.append((pt, active))
    return out


def _reference_affine_dim(points):
    if not points:
        return -1
    return _rank([[x - y for x, y in zip(p, points[0])] for p in points[1:]])


def _reference_triangulate(verts_active, dim):
    if _reference_affine_dim([p for p, _ in verts_active]) != dim:
        raise InvariantViolation("face has unexpected affine dimension")
    if len(verts_active) == dim + 1:
        return [tuple(p for p, _ in verts_active)]
    base_pt, base_active = min(verts_active)
    simplices = []
    facets_seen = set()
    for j in sorted(set().union(*(act for _, act in verts_active))):
        if j in base_active:
            continue
        sub = [(p, a) for p, a in verts_active if j in a]
        if len(sub) < dim or _reference_affine_dim([p for p, _ in sub]) != dim - 1:
            continue
        key = frozenset(p for p, _ in sub)
        if key in facets_seen:
            continue
        facets_seen.add(key)
        simplices += [(base_pt,) + s for s in _reference_triangulate(sub, dim - 1)]
    return simplices


def _reference_volume(poly):
    verts = _reference_vertices(poly)
    if len(verts) < poly.n + 1 or _reference_affine_dim([p for p, _ in verts]) < poly.n:
        return F(0)
    total = F(0)
    for simplex in _reference_triangulate(verts, poly.n):
        rows = [[x - y for x, y in zip(p, simplex[0])] for p in simplex[1:]]
        denom = lcm(*(x.denominator for row in rows for x in row))
        total += F(abs(leibniz_det([[int(x * denom) for x in row] for row in rows])),
                   denom**poly.n)
    return total / factorial(poly.n)


@st.composite
def h_polytopes(draw, dims=st.integers(1, 4)):
    """A random H-polytope of dimension 1-4: random halfspaces alone (often
    unbounded), or inside a box, with a coordinate pinned (flat) or two
    opposite halfspaces that miss each other (empty)."""
    n = draw(dims)
    offset = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    normal = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any).map(tuple)
    kind = draw(st.sampled_from(["random", "boxed", "flat", "empty"]))
    rows = []
    if kind != "random":
        for i in range(n):
            e = tuple(int(j == i) for j in range(n))
            rows += [(e, F(2)), (tuple(-x for x in e), F(2))]
    extra = draw(st.integers(0, 2) if n == 4 else st.integers(0, 3))
    rows += [(draw(normal), draw(offset)) for _ in range(extra)]
    if kind in ("flat", "empty"):
        a = draw(normal)
        b = draw(offset)
        gap = 0 if kind == "flat" else draw(st.fractions(min_value=F(1, 4), max_value=2))
        rows += [(a, b), (tuple(-x for x in a), -b - gap)]
    if len(rows) < n + 1:
        rows += [(draw(normal), draw(offset)) for _ in range(n + 1 - len(rows))]
    return Polytope(n=n, normals=tuple(r for r, _ in rows), offsets=tuple(b for _, b in rows))


@settings(max_examples=300, deadline=None)
@given(h_polytopes())
def test_vertices_and_volume_match_the_fraction_path(poly):
    try:
        ref = _reference_vertices(poly)
    except PreconditionError:
        with pytest.raises(PreconditionError, match="unbounded"):
            poly.vertices
        with pytest.raises(PreconditionError, match="unbounded"):
            polytope_volume(poly)
        return
    den, verts = poly.vertices
    assert den > 0
    assert [(tuple(F(x, den) for x in p), a) for p, a in verts] == ref
    assert polytope_volume(poly) == _reference_volume(poly)


@settings(max_examples=200, deadline=None)
@given(h_polytopes(st.just(2)))
def test_shoelace_area_equals_the_polygon_volume(poly):
    try:
        den, verts = poly.vertices
    except PreconditionError:
        return  # unbounded: no area to compare
    assert _polygon_area(den, [p for p, _ in verts]) == polytope_volume(poly)


def test_hurwitz_examples():
    r = hurwitz_report(2)
    assert r.values["bound"] == 84 and r.values["vol"] == 2
    r3 = hurwitz_report(3)
    assert r3.values["bound"] == 168 and r3.values["vol"] == 4
    for g in range(2, 101):
        rep = hurwitz_report(g)
        assert rep.values["bound"] == 42 * rep.values["vol"]
    with pytest.raises(PreconditionError):
        hurwitz_report(1)


def test_curve_power_examples():
    r = curve_power_report(1, 2)
    assert r.values["aut"] == 84 and r.values["vol"] == 2 and r.values["ratio"] == 42
    r2 = curve_power_report(2, 2)
    assert r2.values["aut"] == 14112 and r2.values["vol"] == 8
    assert r2.values["ratio"] == 1764 == 42**2
    for n in range(1, 6):
        ratios = {curve_power_report(n, g).values["ratio"] for g in (2, 3, 5, 11)}
        assert ratios == {42**n}


def test_fermat_examples():
    r = fermat_report(1, 4)
    assert r.values["vol"] == 4 and r.values["aut_lower"] == 96
    # genus-degree consistency in dimension 1
    for m in range(4, 21):
        g = (m - 1) * (m - 2) // 2
        assert fermat_report(1, m).values["vol"] == 2 * g - 2
    with pytest.raises(PreconditionError):
        fermat_report(5, 7)  # m <= n+2


def test_fermat_refuses_past_the_digit_limit_before_any_factorial(monkeypatch):
    import bdivkit.bounds as bounds_mod
    from bdivkit.exact import format_rat

    def factorial_ran(k):
        raise AssertionError("the factorial ran before the power was bounded")

    monkeypatch.setattr(bounds_mod, "factorial", factorial_ran)
    with pytest.raises(PreconditionError) as refused:
        fermat_report(100000, 100003)
    # the message of the refusal printing the product would have met
    with pytest.raises(PreconditionError) as printed:
        format_rat(100003 ** 1000)
    assert str(refused.value) == str(printed.value)


def test_fermat_threshold_scan():
    rows = fermat_threshold_scan(10)
    exceeding = [r["n"] for r in rows if r["exceeds"]]
    assert exceeding == [5, 6, 7, 8, 9, 10]
    assert rows[3]["ratio"] == 720 * 2401 == 1_728_720
    assert rows[3]["threshold"] == 42**4 == 3_111_696
    assert rows[4]["ratio"] == 5040 * 32768 == 165_150_720
    assert rows[4]["threshold"] == 42**5 == 130_691_232


def test_is_prime_power():
    assert all(is_prime_power(q) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49))
    assert not any(is_prime_power(q) for q in (1, 6, 10, 12, 15, 100))


def test_unitary_poly_examples():
    poly, modulus = unitary_order_poly(1)
    assert modulus == 3
    # q^3 (q^2 - 1)(q^3 + 1) has degree 8
    assert len(poly) - 1 == 8
    assert poly_eval(poly, 3) == 6048
    for n in range(1, 7):
        pn, _ = unitary_order_poly(n)
        assert len(pn) - 1 == comb(n + 2, 2) + comb(n + 3, 2) - 1


def test_unitary_value():
    assert unitary_order_value(1, 3) == 6048
    # gcd(3, q+1) = 3 when q = 2 mod 3
    q = 5
    poly, _ = unitary_order_poly(1)
    assert unitary_order_value(1, q) == poly_eval(poly, q) // 3
    with pytest.raises(PreconditionError):
        unitary_order_value(1, 6)


def test_charp_examples():
    report, rows = char_p_ratio_report(50)
    by_q = {r["q"]: r for r in rows}
    assert by_q[3]["order"] == 6048 and by_q[3]["vol"] == 4
    assert by_q[3]["bound"] == 216 * 4**4 == 55296
    assert all(r["ok"] for r in rows)
    assert report.values["order_degree"] == 8 == 4 * report.values["vol_degree"]
    with pytest.raises(PreconditionError):
        fermat_report(1, 3)  # q = 2 gives m = 3, not general type


def test_constants_examples():
    r = effective_constants(2, 1, 1, F(1, 42))
    v = r.values
    assert v["gamma_rec"] == 4 and v["m_rec"] == 10
    assert v["C"] == 18 and v["vol_threshold"] == 1296
    assert v["M_min"] == 1514

    r1 = effective_constants(1, F(7, 9), F(3, 2), F(1, 5))
    assert r1.values["C"] == 2 and r1.values["vol_threshold"] == 2

    with pytest.raises(PreconditionError):
        effective_constants(2, 0, 1, F(1, 2))
    with pytest.raises(PreconditionError):
        effective_constants(2, 1, F(1, 2), F(1, 2))  # gamma0 < 1


def test_constants_bracketing():
    for n, eps, g0, delta in [
        (2, F(1), F(1), F(1, 42)),
        (3, F(1, 3), F(2), F(1, 7)),
        (1, F(5), F(1), F(3)),
        (4, F(2, 5), F(7, 3), F(1, 1806)),
    ]:
        v = effective_constants(n, eps, g0, delta).values
        x = v["C"] * n / delta
        assert v["M_min"] > x + 1
        assert v["M_min"] - 1 <= x + 1


def test_constants_monotonicity():
    # C decreases in eps, increases in n
    for n in (2, 3, 4):
        cs = [
            effective_constants(n, eps, 1, F(1, 2)).values["C"]
            for eps in (F(1, 3), F(1, 2), F(1), F(2))
        ]
        assert all(a > b for a, b in zip(cs, cs[1:]))
    for eps in (F(1, 2), F(1)):
        cs = [
            effective_constants(n, eps, 1, F(1, 2)).values["C"] for n in (2, 3, 4)
        ]
        assert all(a < b for a, b in zip(cs, cs[1:]))


def test_bound_report_json_exact_strings():
    data = curve_power_report(3, 2).to_json()
    assert data["aut"] == str(6 * 42**3 * 2**3) == "3556224"
    assert isinstance(data["aut"], str)
