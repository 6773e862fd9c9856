import random
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bdivkit.exact import PreconditionError
from bdivkit.fans import orthant_fan
from bdivkit.logpairs import (
    BDivisor,
    LocalPair,
    ModelDivisor,
    blowup_chain_coeff,
    log_discrepancy,
    mld_origin,
    mld_origin_minimizer,
    pullback_coeff,
    pullback_trace,
    relative_pullback_coeff,
    rounding_comparison,
    valuation,
)
from test_fans import reference_star_subdivide

unit_fracs = st.fractions(min_value=F(0), max_value=F(1), max_denominator=12)


def coeff(md, ray):
    """The coefficient of a model divisor at one of its fan's rays."""
    return md.ray_coeffs[md.fan.ray_index[ray]]


def test_log_discrepancy_examples():
    p = LocalPair((F(1, 2), F(2, 3)))
    # unit vectors pin the affine function at 1 - c_i
    assert log_discrepancy(p, (1, 0)) == F(1, 2)
    assert log_discrepancy(p, (0, 1)) == F(1, 3)
    assert log_discrepancy(LocalPair((F(1, 2), F(1, 2))), (1, 1)) == 1
    smooth = LocalPair((F(0), F(0), F(0)))
    assert log_discrepancy(smooth, (1, 1, 1)) == 3


def test_valuation_validation():
    with pytest.raises(PreconditionError):
        valuation((0, 0))
    with pytest.raises(PreconditionError):
        valuation((2, 4))
    with pytest.raises(PreconditionError):
        valuation((-1, 2))


def test_pullback_coeff_examples():
    b1, b2 = F(3, 4), F(5, 6)
    p = LocalPair((b1, b2))
    assert pullback_coeff(p, (1, 1)) == b1 + b2 - 1
    small = LocalPair((F(1, 4), F(1, 4)))
    assert pullback_coeff(small, (1, 1)) == 0  # clamped
    q = LocalPair((F(1, 2), F(2, 3)))
    assert pullback_coeff(q, (2, 1)) == 0  # 1 - 4/3 clamps
    assert pullback_coeff(q, (0, 1)) == F(2, 3)  # divisorial case is c_i


def test_pullback_is_clamped_log_discrepancy():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.choice([1, 2, 3])
        p = LocalPair(tuple(F(rng.randint(0, 6), 6) for _ in range(n)))
        v = tuple(rng.randint(0, 4) for _ in range(n))
        if all(e == 0 for e in v):
            continue
        g = 0
        for e in v:
            g = gcd(g, e)
        v = tuple(e // g for e in v)
        assert pullback_coeff(p, v) == max(F(0), 1 - log_discrepancy(p, v))


def test_affine_pinning():
    # 1 - log_discrepancy is the affine extension of 0 -> 1, e_i -> c_i
    p = LocalPair((F(1, 2), F(2, 3), F(1, 7)))
    for v in [(1, 1, 1), (2, 1, 3), (1, 0, 2)]:
        affine = 1 + sum(e * (c - 1) for e, c in zip(v, p.coeffs))
        assert 1 - log_discrepancy(p, v) == affine


def test_bdivisor_eval_examples():
    b = BDivisor((F(1, 2), F(2, 3)), {(1, 1): F(1, 3)})
    assert b.value((1, 1)) == F(1, 3)
    assert b.value((2, 1)) == 1
    assert b.value((1, 0)) == F(1, 2)


def test_bdivisor_validation():
    with pytest.raises(PreconditionError):
        BDivisor((F(1, 2),), {(2,): F(2)})  # value out of range
    with pytest.raises(PreconditionError):
        BDivisor((F(1, 2), F(1)), {(0, 1): F(0)})  # unit key
    with pytest.raises(PreconditionError):
        BDivisor((F(1, 2), F(1)), {(2, 4): F(0)})  # not primitive


def test_pullback_trace_examples():
    p = LocalPair((F(3, 4), F(5, 6)))
    f = orthant_fan(2)
    md = pullback_trace(p, f)
    assert dict(zip(md.fan.rays, md.ray_coeffs)) == {(1, 0): F(3, 4), (0, 1): F(5, 6)}
    blow = reference_star_subdivide(f, (1, 1))
    md2 = pullback_trace(p, blow)
    assert coeff(md2, (1, 1)) == F(3, 4) + F(5, 6) - 1
    q = LocalPair((F(1, 2), F(2, 3)))
    blow12 = reference_star_subdivide(f, (1, 2))
    assert coeff(pullback_trace(q, blow12), (1, 2)) == 0  # 1 - (1/2 + 2/3) clamps


def test_relative_pullback_coeff_examples():
    # on the trivial fan it agrees with the direct formula
    p = LocalPair((F(1, 2), F(2, 3)))
    md = pullback_trace(p, orthant_fan(2))
    for v in [(1, 0), (1, 1), (2, 1), (1, 3)]:
        assert relative_pullback_coeff(md, v) == pullback_coeff(p, v)

    # blow-up of (C^2, (1/2, 1)) at (1,1) carrying coefficient 1/2
    fan = reference_star_subdivide(orthant_fan(2), (1, 1))
    coeffs = []
    for r in fan.rays:
        coeffs.append({(1, 0): F(1, 2), (0, 1): F(1), (1, 1): F(1, 2)}[r])
    md = ModelDivisor(fan, tuple(coeffs))
    assert relative_pullback_coeff(md, (1, 2)) == F(1, 2)
    # a ray returns its own coefficient
    assert relative_pullback_coeff(md, (1, 1)) == F(1, 2)


def test_relative_pullback_well_defined_on_shared_faces():
    rng = random.Random(11)
    fan = orthant_fan(3)
    for v in [(1, 1, 1), (1, 2, 1), (2, 1, 3)]:
        fan = reference_star_subdivide(fan, v)
    coeffs = tuple(F(rng.randint(0, 4), 4) for _ in fan.rays)
    md = ModelDivisor(fan, coeffs)
    # evaluate face points through every cone containing them
    for idx, cone in zip(fan.cones, fan.max_cones):
        for j, k in product(range(3), repeat=2):
            pt = tuple(a + b for a, b in zip(cone.gens[j], cone.gens[k]))
            g = 0
            for e in pt:
                g = gcd(g, e)
            pt = tuple(e // g for e in pt)
            values = set()
            for cone2 in fan.max_cones:
                lam = cone2.barycentric(pt)
                if lam is None:
                    continue
                total = sum(
                    l * (1 - coeff(md, gen)) for l, gen in zip(lam, cone2.gens)
                )
                values.add(max(F(0), 1 - total))
            assert len(values) == 1


@given(st.lists(unit_fracs, min_size=1, max_size=3), st.data())
@settings(max_examples=60, deadline=None)
def test_pullback_monotone_in_coefficients(coeffs, data):
    n = len(coeffs)
    bumps = data.draw(
        st.lists(unit_fracs, min_size=n, max_size=n)
    )
    lower = LocalPair(tuple(coeffs))
    upper = LocalPair(tuple(min(F(1), c + b) for c, b in zip(coeffs, bumps)))
    v = tuple(
        data.draw(st.integers(min_value=0, max_value=4)) for _ in range(n)
    )
    if all(e == 0 for e in v):
        return
    g = 0
    for e in v:
        g = gcd(g, e)
    v = tuple(e // g for e in v)
    assert pullback_coeff(lower, v) <= pullback_coeff(upper, v)


def test_blowup_chain_oracle_matches_formula():
    coeffs = [F(0), F(1, 2), F(2, 3), F(6, 7), F(1)]
    for b1 in coeffs:
        for b2 in coeffs:
            p = LocalPair((b1, b2))
            for v1 in range(0, 9):
                for v2 in range(0, 9):
                    if gcd(v1, v2) != 1:
                        continue
                    assert blowup_chain_coeff(b1, b2, (v1, v2)) == pullback_coeff(
                        p, (v1, v2)
                    ), (b1, b2, v1, v2)


def stepwise_blowup_chain_coeff(b1, b2, v) -> F:
    """The blow-up chain one point blow-up at a time: at each step the
    larger entry of v drops by the smaller, and the coefficient of the
    other side becomes the exceptional coefficient x + y - 1."""
    x, y = F(b1), F(b2)
    alpha, beta = v
    if beta == 0:
        return max(F(0), x)
    if alpha == 0:
        return max(F(0), y)
    while alpha != beta:
        if alpha > beta:
            alpha -= beta
            y = x + y - 1
        else:
            beta -= alpha
            x = x + y - 1
    return max(F(0), x + y - 1)


@settings(max_examples=300, deadline=None)
@given(unit_fracs, unit_fracs, st.integers(0, 400), st.integers(0, 400))
def test_blowup_chain_takes_runs_of_steps_as_the_stepwise_walk(b1, b2, v1, v2):
    g = gcd(v1, v2)
    if g == 0:
        return
    v = (v1 // g, v2 // g)
    assert blowup_chain_coeff(b1, b2, v) == stepwise_blowup_chain_coeff(b1, b2, v)


def test_mld_examples():
    assert mld_origin(LocalPair((F(0), F(0)))) == 2
    assert mld_origin(LocalPair((F(1, 2), F(1, 2)))) == 1
    assert mld_origin(LocalPair((F(2, 3), F(2, 3)))) == F(2, 3)
    val, minim = mld_origin_minimizer(LocalPair((F(1, 2), F(1, 2))))
    assert (val, minim) == (1, (1, 1))


def test_mld_with_coefficient_one():
    # not klt: the infimum drops to zero along the coefficient-one axis
    assert mld_origin(LocalPair((F(1),))) == 0
    assert mld_origin(LocalPair((F(1), F(1, 2)))) == F(1, 2)


def _mld_bruteforce(pair, factor):
    from math import ceil

    a0 = sum((1 - c for c in pair.coeffs), F(0))
    box = [
        1 if c == 1 else max(1, factor * ceil(a0 / (1 - c))) for c in pair.coeffs
    ]
    best = None
    for v in product(*(range(1, b + 1) for b in box)):
        val = sum((e * (1 - c) for e, c in zip(v, pair.coeffs)), F(0))
        if best is None or val < best:
            best = val
    return best


def test_mld_agrees_with_enlarged_bruteforce():
    rng = random.Random(17)
    coeff_pool = [F(0), F(1, 2), F(2, 3), F(3, 4), F(4, 5), F(6, 7)]
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        pair = LocalPair(tuple(rng.choice(coeff_pool) for _ in range(n)))
        assert mld_origin(pair) == _mld_bruteforce(pair, 2)


def _parent_mld_walk(pair):
    """The pruned walk over the a0 / (1 - c_i) box that the closed form
    replaced, kept as the reference."""
    from math import ceil

    a0 = sum((1 - c for c in pair.coeffs), F(0))
    box = [1 if c == 1 else max(1, ceil(a0 / (1 - c))) for c in pair.coeffs]
    weights = [1 - c for c in pair.coeffs]
    best = None
    best_v = None

    def walk(prefix, partial):
        nonlocal best, best_v
        i = len(prefix)
        if best is not None and partial > best:
            return
        if i == pair.n:
            if best is None or partial < best:
                best = partial
                best_v = tuple(prefix)
            return
        for e in range(1, box[i] + 1):
            walk(prefix + [e], partial + e * weights[i])
            if weights[i] == 0:
                break

    walk([], F(0))
    return best, best_v


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([F(0), F(1)]), unit_fracs), min_size=1, max_size=4))
def test_mld_closed_form_matches_the_parent_walk(coeffs):
    pair = LocalPair(tuple(coeffs))
    assert mld_origin_minimizer(pair) == _parent_mld_walk(pair)


def test_rounding_examples():
    r = rounding_comparison([F(1, 2)], 3)
    assert r.floor_up == (1,) and r.ceil_down == (1,) and r.equal and r.le

    r = rounding_comparison([F(2, 5)], 2)
    assert r.floor_up == (0,) and r.ceil_down == (1,)
    assert r.le and not r.equal

    for m in range(1, 101):
        r = rounding_comparison([F(6, 7)], m)
        assert r.equal, m


def test_rounding_rejects_coefficient_one():
    with pytest.raises(PreconditionError):
        rounding_comparison([F(1)], 2)


@given(
    st.lists(
        st.fractions(min_value=F(0), max_value=F(1), max_denominator=10**6).filter(
            lambda c: c < 1),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=1, max_value=10**9),
)
@settings(max_examples=200, deadline=None)
def test_rounding_le_always(coeffs, m):
    # floor(m c) <= ceil((m - 1) c) for every c in [0, 1) and m >= 1: the
    # report states it without checking it
    r = rounding_comparison(coeffs, m)
    assert all(a <= b for a, b in zip(r.floor_up, r.ceil_down))
    assert r.le and r.to_json()["le"] is True


def test_pair_json_roundtrip():
    p = LocalPair((F(1, 2), F(1)))
    assert LocalPair.from_json(p.to_json()) == p
    b = BDivisor(p.coeffs, {(1, 2): F(0)})
    assert BDivisor.from_json(b.to_json()) == b
    # omitted pair values default to the ambient pair
    assert (
        BDivisor.from_json({"deviations": [{"v": [1, 2], "value": "0"}]}, p) == b
    )


def fraction_pullback(md, cone, lam):
    """The Fraction formula max(0, 1 - sum lam_j (1 - g_j)) in one cone."""
    total = sum((l * (1 - coeff(md, g)) for l, g in zip(lam, cone.gens)), F(0))
    return max(F(0), 1 - total)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_integer_pullback_equals_the_fraction_formula_in_every_cone(data):
    # star-subdivision chains without resolve, so cones are non-smooth; the
    # points are rays, points on faces and interior points of cones
    n = data.draw(st.integers(1, 4))
    vec = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any).map(tuple)
    fan = orthant_fan(n)
    for _ in range(data.draw(st.integers(0, 4))):
        fan = reference_star_subdivide(fan, data.draw(vec))
    md = ModelDivisor(fan, tuple(data.draw(unit_fracs) for _ in fan.rays))
    cone = data.draw(st.sampled_from(fan.max_cones))
    weights = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    points = [
        data.draw(st.sampled_from(fan.rays)),
        tuple(sum(w * g[i] for w, g in zip(weights, cone.gens)) for i in range(n)),
        tuple(sum((w + 1) * g[i] for w, g in zip(weights, cone.gens)) for i in range(n)),
        data.draw(vec),
    ]
    for pt in points:
        values = {
            fraction_pullback(md, c, lam)
            for c in fan.max_cones
            if (lam := c.barycentric(pt)) is not None
        }
        assert values == {relative_pullback_coeff(md, pt)}


def test_b_divisor_json_refuses_a_deviation_listed_twice():
    # a dict cannot hold a key twice, but a JSON list of deviations can
    data = {"pair": ["1/2", "1"], "deviations": [{"v": [1, 2], "value": "0"},
                                                 {"v": [1, 2], "value": "1/2"}]}
    with pytest.raises(PreconditionError, match=r"duplicate deviation key \(1, 2\)"):
        BDivisor.from_json(data)
