import random
from fractions import Fraction
from math import gcd

import pytest

from bdivkit.exact import InvariantViolation, PreconditionError, is_primitive
from bdivkit.fans import (
    Cone,
    Fan,
    hirzebruch_jung_rays,
    insert_rays,
    is_smooth,
    orthant_fan,
)
from test_exact import primitive_part


def cone_fan(*gens):
    """Fan consisting of a single full-dimensional cone."""
    n = len(gens[0])
    return Fan(n=n, rays=tuple(gens), cones=(tuple(range(len(gens))),))


def lambdas(loc):
    """A location's coordinates as Fractions: its numerators over |det|."""
    d = abs(loc.cone.det)
    return tuple(Fraction(x, d) for x in loc.nums)


def assert_cones_match_rebuild(fan):
    """The cones a subdivision handed over equal, in order, a fresh fan's."""
    assert fan.max_cones == Fan(fan.n, fan.rays, fan.cones).max_cones


def test_orthant_fan_examples():
    f1 = orthant_fan(1)
    assert f1.rays == ((1,),) and f1.cones == ((0,),)
    f2 = orthant_fan(2)
    assert set(f2.rays) == {(1, 0), (0, 1)} and len(f2.cones) == 1
    f3 = orthant_fan(3)
    assert len(f3.rays) == 3 and len(f3.cones) == 1


def test_orthant_fan_rejects_bad_dims():
    with pytest.raises(PreconditionError):
        orthant_fan(0)
    with pytest.raises(PreconditionError):
        orthant_fan(7)


def test_star_subdivide_origin_blowup():
    f = insert_rays(orthant_fan(2), [(1, 1)])
    assert (1, 1) in f.rays
    gens = {frozenset(f.rays[i] for i in c) for c in f.cones}
    assert gens == {
        frozenset({(1, 0), (1, 1)}),
        frozenset({(0, 1), (1, 1)}),
    }


def test_star_subdivide_existing_ray_is_identity():
    f = orthant_fan(2)
    assert insert_rays(f, [(1, 0)]) == f


def test_star_subdivide_face_ray_3d():
    # (1,1,0) has two nonzero barycentric coordinates, hence two subcones
    f = insert_rays(orthant_fan(3), [(1, 1, 0)])
    gens = {frozenset(f.rays[i] for i in c) for c in f.cones}
    assert gens == {
        frozenset({(1, 1, 0), (0, 1, 0), (0, 0, 1)}),
        frozenset({(1, 0, 0), (1, 1, 0), (0, 0, 1)}),
    }


def test_locate_blowup_fan():
    f = insert_rays(orthant_fan(2), [(1, 1)])
    loc = f.locate((2, 3))
    coords = dict(zip(loc.cone.gens, lambdas(loc)))
    assert coords == {(1, 1): 2, (0, 1): 1}
    # reconstruction is exact
    rebuilt = tuple(
        sum(g[i] * l for g, l in zip(loc.cone.gens, lambdas(loc))) for i in range(2)
    )
    assert rebuilt == (2, 3)


def test_locate_on_ray_and_standard_cone():
    f = insert_rays(orthant_fan(2), [(1, 1)])
    loc = f.locate((1, 1))
    coords = dict(zip(loc.cone.gens, lambdas(loc)))
    assert coords[(1, 1)] == 1 and sum(coords.values()) == 1
    f0 = orthant_fan(2)
    loc0 = f0.locate((5, 7))
    assert dict(zip(loc0.cone.gens, lambdas(loc0))) == {(1, 0): 5, (0, 1): 7}


def test_locate_errors():
    f = orthant_fan(2)
    with pytest.raises(PreconditionError):
        f.locate((0, 0))
    partial = cone_fan((1, 0), (1, 1))
    with pytest.raises(InvariantViolation):
        partial.locate((1, 5))


def test_is_smooth():
    assert is_smooth(orthant_fan(4))
    assert not is_smooth(cone_fan((1, 0), (1, 2)))
    assert is_smooth(insert_rays(orthant_fan(2), [(1, 1)]))


def test_resolve_examples():
    f = orthant_fan(3)
    assert insert_rays(f, ()) == f

    r = insert_rays(cone_fan((1, 0), (1, 2)), ())
    assert (1, 1) in r.rays and is_smooth(r)

    r = insert_rays(cone_fan((1, 0), (2, 5)), ())
    assert set(r.rays) == {(1, 0), (2, 5), (1, 1), (1, 2)}
    assert is_smooth(r)


def test_resolve_matches_continued_fraction_oracle():
    for b in range(2, 13):
        for a in range(1, b):
            if gcd(a, b) != 1:
                continue
            base = cone_fan((1, 0), (a, b))
            r = insert_rays(base, ())
            assert is_smooth(r)
            added = sorted(set(r.rays) - set(base.rays))
            assert added == sorted(hirzebruch_jung_rays(a, b)), (a, b)


def test_random_subdivisions_locate_reconstructs():
    rng = random.Random(1234)
    fan = orthant_fan(3)
    for _ in range(6):
        v = tuple(rng.randint(0, 4) for _ in range(3))
        if all(e == 0 for e in v):
            continue
        fan = insert_rays(fan, [primitive_part(v)])
        assert_cones_match_rebuild(fan)
    assert is_smooth(fan)
    for _ in range(1000):
        v = tuple(rng.randint(0, 50) for _ in range(3))
        if all(e == 0 for e in v):
            continue
        loc = fan.locate(v)
        rebuilt = tuple(
            sum(g[i] * l for g, l in zip(loc.cone.gens, lambdas(loc)))
            for i in range(3)
        )
        assert rebuilt == v
        assert all(l >= 0 for l in lambdas(loc))


def test_interior_points_lie_in_a_unique_cone():
    rng = random.Random(404)
    fan = orthant_fan(3)
    for v in [(1, 1, 1), (2, 1, 1), (1, 3, 2)]:
        fan = insert_rays(fan, [v])
        assert_cones_match_rebuild(fan)
    for _ in range(300):
        v = tuple(rng.randint(0, 20) for _ in range(3))
        if all(e == 0 for e in v):
            continue
        containing = [c for c in fan.max_cones if c.coords(v) is not None]
        loc = fan.locate(v)
        if all(l > 0 for l in lambdas(loc)):
            assert len(containing) == 1
        else:
            assert len(containing) >= 1


def test_subdivision_preserves_support():
    rng = random.Random(99)
    before = orthant_fan(2)
    after = insert_rays(before, [(3, 4)])
    for _ in range(200):
        v = tuple(rng.randint(0, 30) for _ in range(2))
        if all(e == 0 for e in v):
            continue
        assert before.locate(v) is not None
        assert after.locate(v) is not None


def test_resolve_3d_stress():
    rng = random.Random(60601)
    for _ in range(15):
        v = tuple(rng.randint(1, 7) for _ in range(3))
        v = primitive_part(v)
        fan = cone_fan((1, 0, 0), (0, 1, 0), v)
        if fan.max_cones[0].det == 0:
            continue
        res = insert_rays(fan, ())
        assert is_smooth(res)
        # refinement: every original-cone sample still locates and rebuilds
        for _ in range(20):
            weights = [rng.randint(0, 5) for _ in range(3)]
            pt = tuple(
                sum(g[i] * w for g, w in zip(fan.max_cones[0].gens, weights))
                for i in range(3)
            )
            if all(e == 0 for e in pt):
                continue
            loc = res.locate(pt)
            rebuilt = tuple(
                sum(g[i] * l for g, l in zip(loc.cone.gens, lambdas(loc)))
                for i in range(3)
            )
            assert rebuilt == pt


def test_cone_validation():
    with pytest.raises(PreconditionError):
        Cone(((1, 0), (2, 0)))  # dependent
    with pytest.raises(PreconditionError):
        Cone(((1, 0), (0, -1)))  # outside orthant
    with pytest.raises(PreconditionError):
        Cone(((2, 0),))  # not primitive


def test_fan_json_roundtrip():
    f = insert_rays(orthant_fan(2), [(1, 1)])
    data = f.to_json()
    assert data["n"] == 2
    assert Fan.from_json(data) == f


def test_parallelepiped_points():
    c = Cone(((1, 0), (2, 5)))
    pts = c.parallelepiped_points()
    assert pts == [(1, 1), (1, 2), (2, 3), (2, 4)]
    assert Cone(((1, 0), (0, 1))).parallelepiped_points() == []
    c = Cone(((1, 0, 0), (0, 1, 0), (1, 1, 2)))
    assert c.parallelepiped_points() == [(1, 1, 1)]


# ---------------------------------------------------------------------------
# batched insertion, ray location and the subdivision check against the
# one-ray-at-a-time algorithms they replace

from hypothesis import given, settings
from hypothesis import strategies as st

import bdivkit.fans as fans_mod
from bdivkit.fans import BarycentricResult


def reference_star_subdivide(fan, r):
    """One star subdivision by testing every cone, rebuilding the whole fan."""
    vec = primitive_part(r)
    if vec in fan.ray_index:
        return fan
    new_rays = fan.rays + (vec,)
    r_idx = len(fan.rays)
    cones = {}
    for idx, cone in zip(fan.cones, fan.max_cones):
        lam = cone.barycentric(vec)
        if lam is None:
            cones[idx] = cone
            continue
        for j, l in enumerate(lam):
            if l > 0:
                piece = tuple(k for pos, k in enumerate(idx) if pos != j) + (r_idx,)
                cones[piece] = Cone(tuple(new_rays[k] for k in piece))
    return Fan(n=fan.n, rays=new_rays, cones=tuple(cones))


def reference_parallelepiped_points(cone):
    """The nonzero parallelepiped points, sorted, by closing the residue
    group G^-1 Z^n / Z^n in Fractions: the unit vectors' coordinates mod 1."""
    n = len(cone.gens)
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    steps = [tuple(x % 1 for x in reference_coordinates(cone.gens, e)) for e in units]
    group = {(Fraction(0),) * n}
    frontier = list(group)
    while frontier:
        nxt = []
        for t in frontier:
            for step in steps:
                u = tuple((a + b) % 1 for a, b in zip(t, step))
                if u not in group:
                    group.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(
        tuple(int(sum(g[i] * x for g, x in zip(cone.gens, t))) for i in range(n))
        for t in group if any(t)
    )


def reference_resolve(fan):
    """Resolution one star subdivision at a time: while a cone is not smooth,
    subdivide at the lexicographically least primitive point of the
    parallelepiped of the first non-smooth cone in key order."""
    while True:
        cone = next((c for c in fan.max_cones if abs(c.det) != 1), None)
        if cone is None:
            return fan
        pivot = next(p for p in reference_parallelepiped_points(cone) if is_primitive(p))
        refined = reference_star_subdivide(fan, pivot)
        if len(refined.rays) == len(fan.rays):
            raise InvariantViolation("resolution failed to make progress")
        fan = refined


def reference_locate(fan, v):
    """The first cone in canonical order that contains v, by a full scan."""
    for idx, cone in zip(fan.cones, fan.max_cones):
        lam = cone.barycentric(v)
        if lam is not None:
            d = abs(cone.det)
            return BarycentricResult(cone, idx, tuple(int(x * d) for x in lam))
    raise InvariantViolation(f"no cone contains {v}")


def test_location_is_a_tuple_with_named_fields():
    fan = insert_rays(orthant_fan(2), [(1, 1)])
    loc = fan.locate((1, 2))
    cone, idx, nums = loc
    assert type(loc) is BarycentricResult and isinstance(loc, tuple)
    assert (loc.cone, loc.ray_indices, loc.nums) == (cone, idx, nums)
    assert not hasattr(loc, "__dict__")
    again = BarycentricResult(cone, idx, nums)
    assert again == loc and hash(again) == hash(loc)
    assert BarycentricResult(cone, idx, tuple(x + 1 for x in nums)) != loc
    # a witness is compared and hashed with its location
    from bdivkit.reduction import Witness

    def witness(at):
        return Witness((1, 2), Fraction(0), Fraction(1, 2), idx, 0, at)

    assert witness(again) == witness(loc) and hash(witness(again)) == hash(witness(loc))
    assert witness(fan.locate((2, 1))) != witness(loc)


def same_fan(a, b):
    return (
        a.rays == b.rays
        and a.cones == b.cones
        and [c.gens for c in a.max_cones] == [c.gens for c in b.max_cones]
    )


@st.composite
def refined_fans(draw, max_n=4, max_rays=4, n=None):
    """A star-subdivision chain of the orthant, built by the reference.

    The dimension is drawn from 1..max_n unless n fixes it.
    """
    n = n or draw(st.integers(1, max_n))
    fan = orthant_fan(n)
    for _ in range(draw(st.integers(0, max_rays))):
        fan = reference_star_subdivide(fan, draw(subdivision_vectors(fan)))
    return fan


def subdivision_vectors(fan):
    """Nonzero vectors: random ones, ones on a face of a cone, existing rays."""
    n = fan.n
    free = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)

    @st.composite
    def on_face(draw):
        idx = draw(st.sampled_from(fan.cones))
        picked = draw(st.lists(st.sampled_from(idx), min_size=1, max_size=n, unique=True))
        weights = draw(st.lists(st.integers(1, 3), min_size=len(picked), max_size=len(picked)))
        return [sum(w * fan.rays[i][k] for w, i in zip(weights, picked)) for k in range(n)]

    return st.one_of(free, on_face(), st.sampled_from(fan.rays).map(list)).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_batched_insertion_equals_one_ray_chain(data):
    fan = data.draw(refined_fans())
    vecs = data.draw(st.lists(subdivision_vectors(fan), min_size=0, max_size=6))
    # duplicates: repeat a drawn vector, possibly scaled
    if vecs and data.draw(st.booleans()):
        k = data.draw(st.integers(1, 3))
        vecs.append(tuple(k * e for e in data.draw(st.sampled_from(vecs))))
    expected = fan
    for v in vecs:
        expected = reference_star_subdivide(expected, v)
    got = insert_rays(fan, [primitive_part(v) for v in vecs])
    assert same_fan(got, reference_resolve(expected))


@st.composite
def surface_cuts(draw):
    """A 2-D fan, perhaps with cones dropped, and 20-80 vectors to insert.

    The vectors are a lexicographically ordered run of the primitive vectors
    of a box, as a cut lists its valuations, with random vectors, vectors on
    a face of a cone and existing rays put in at drawn positions.
    """
    fan = whole = draw(refined_fans(n=2, max_rays=6))
    if draw(st.booleans()):  # a proper partial fan: some cones dropped
        kept = draw(st.lists(st.sampled_from(fan.cones), unique=True, max_size=len(fan.cones) - 1))
        fan = Fan(n=2, rays=fan.rays, cones=tuple(kept))
    a, b = draw(st.integers(6, 12)), draw(st.integers(6, 12))
    box = [(x, y) for x in range(1, a + 1) for y in range(1, b + 1) if gcd(x, y) == 1]
    start = draw(st.integers(0, len(box) - 20))
    vecs = box[start : start + draw(st.integers(20, 60))]
    extras = draw(st.lists(subdivision_vectors(whole), max_size=20))
    for v in extras:
        vecs.insert(draw(st.integers(0, len(vecs))), primitive_part(v))
    return fan, vecs


@settings(max_examples=60, deadline=None)
@given(surface_cuts())
def test_surface_insertion_in_angular_order_equals_one_ray_chain(fan_vecs):
    fan, vecs = fan_vecs
    expected = fan
    for v in vecs:
        expected = reference_star_subdivide(expected, v)
    expected = reference_resolve(expected)
    got = insert_rays(fan, vecs)
    assert same_fan(got, expected)
    assert [c.det for c in got.max_cones] == [c.det for c in expected.max_cones]
    # the angular order handed to the next subdivision is the fan's own
    assert got._arcs == Fan(2, got.rays, got.cones)._arcs


def test_surface_insertion_refuses_overlapping_cones():
    rays = ((1, 0), (0, 1), (1, 1))
    for cones in [((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (0, 2))]:
        with pytest.raises(PreconditionError, match="overlap"):
            insert_rays(Fan(2, rays, cones), [(2, 1)])
    # a partial fan with a gap is no overlap: (3, 2) lies in the gap
    partial = Fan(2, ((1, 0), (2, 1), (1, 1), (0, 1)), ((0, 1), (2, 3)))
    out = insert_rays(partial, [(3, 2)])
    assert out.cones == partial.cones and out.rays[-1] == (3, 2)


@settings(max_examples=100, deadline=None)
@given(refined_fans(max_rays=6))
def test_locate_on_rays_equals_the_scan(fan):
    fan = insert_rays(fan, ())
    for ray in fan.rays:
        assert fan.locate(ray) == reference_locate(fan, ray)


def test_locate_falls_back_to_the_scan_for_rays_outside_every_cone():
    partial = Fan(n=2, rays=((1, 0), (1, 1), (0, 1)), cones=((0, 1),))
    with pytest.raises(InvariantViolation):
        partial.locate((0, 1))
    assert partial.locate((1, 1)) == reference_locate(partial, (1, 1))


@settings(max_examples=150, deadline=None)
@given(refined_fans(max_rays=6), st.booleans())
def test_subdivision_check_accepts_star_subdivision_chains(fan, smooth):
    if smooth:
        fan = insert_rays(fan, ())
    assert fan.subdivision_defect is None
    assert Fan.from_json(fan.to_json()) == fan


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_subdivision_check_rejects_broken_fans(data):
    fan = data.draw(refined_fans(max_rays=6).filter(lambda f: len(f.cones) > 1))
    drop = data.draw(st.sampled_from(fan.cones))
    units = tuple(sorted(fan.ray_index[tuple(int(i == j) for i in range(fan.n))]
                         for j in range(fan.n)))
    broken = {
        "gapped": tuple(c for c in fan.cones if c != drop),
        "duplicated": fan.cones + (drop,),
        "overlapping": fan.cones + (units,),
    }
    for cones in broken.values():
        bad = Fan(n=fan.n, rays=fan.rays, cones=cones)
        assert bad.subdivision_defect is not None
        with pytest.raises(PreconditionError):
            Fan.from_json(bad.to_json())


def test_subdivision_check_examples():
    rays = ((1, 0), (0, 1), (1, 1))
    assert Fan(2, rays, ((0, 2), (1, 2))).subdivision_defect is None
    # overlapping: both cones contain the corner of e1 and (1,1)
    overlap = Fan(2, rays, ((0, 1), (0, 2)))
    assert overlap.subdivision_defect == "boundary facet [(1, 0)] bounds 2 cones"
    # one cone twice, each half the orthant: facets paired and the volume
    # right, but both copies lie on the same side of each facet
    pillow = Fan(2, ((3, 1), (1, 3)), ((0, 1), (0, 1)))
    assert pillow.subdivision_defect == "the two cones on facet [(1, 3)] overlap"
    # a gap, with every ray in a cone
    gap = Fan(2, ((1, 0), (1, 1)), ((0, 1),))
    assert "bounds 1 cones" in gap.subdivision_defect
    assert Fan(1, ((1,),), ((0,),)).subdivision_defect is None
    assert Fan(1, ((1,),), ((0,), (0,))).subdivision_defect is not None
    # two triangulations of the orthant, starred at (1,1,1) and at (1,2,1)
    # with the edge midpoints: every facet passes, and only the volume sum
    # (2) shows the double cover
    rays = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
            (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 2, 1))
    first = ((3, 0, 1), (3, 1, 2), (3, 2, 0))
    second = ((7, 0, 4), (7, 4, 1), (7, 1, 5), (7, 5, 2), (7, 2, 6), (7, 6, 0))
    assert Fan(3, rays[:4], first).subdivision_defect is None
    renumber = {0: 0, 1: 1, 2: 2, 4: 3, 5: 4, 6: 5, 7: 6}
    alone = tuple(tuple(renumber[i] for i in c) for c in second)
    assert Fan(3, rays[:3] + rays[4:], alone).subdivision_defect is None
    double = Fan(3, rays, first + second)
    assert double.subdivision_defect == "the cones fill 2 of the orthant, not all of it"


# ---------------------------------------------------------------------------
# the walk that decides 2-D fans, against the facet and volume test

quadrant_vectors = st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(any).map(primitive_part)


def relabel(fan, order):
    """The fan with ray i moved to position order[i], dropping the rays
    order maps to None and every cone that spans one."""
    kept = [i for i in range(len(fan.rays)) if order[i] is not None]
    rays = [None] * len(kept)
    for i in kept:
        rays[order[i]] = fan.rays[i]
    cones = tuple(
        tuple(order[i] for i in c) for c in fan.cones if None not in map(order.__getitem__, c)
    )
    return Fan(2, tuple(rays), cones)


@st.composite
def quadrant_fans(draw):
    """(kind, fan): an ``insert_rays`` chain on the quadrant, its rays put
    in a drawn order, and either kept whole or broken one way."""
    fan = orthant_fan(2)
    for _ in range(draw(st.integers(0, 3))):
        fan = insert_rays(fan, draw(st.lists(quadrant_vectors, min_size=1, max_size=4)))
    fan = relabel(fan, draw(st.permutations(range(len(fan.rays)))))
    rays, cones = fan.rays, fan.cones
    kind = draw(st.sampled_from(["whole", "dropped", "chord", "re-paired", "unused", "no top"]))
    if kind == "dropped":
        drop = draw(st.sampled_from(cones))
        return kind, Fan(2, rays, tuple(c for c in cones if c != drop))
    if kind == "chord":  # a cone between rays that no cone joins
        i, j = draw(st.lists(st.sampled_from(range(len(rays))), min_size=2, max_size=2, unique=True))
        return kind, Fan(2, rays, cones + ((i, j),))
    if kind == "re-paired" and len(cones) > 1:
        pair = st.lists(st.sampled_from(cones), min_size=2, max_size=2, unique=True)
        (a, b), (c, d) = draw(pair)
        if a != d and c != b:
            kept = tuple(k for k in cones if k not in ((a, b), (c, d)))
            return kind, Fan(2, rays, kept + ((a, d), (c, b)))
    if kind == "unused":
        extra = draw(quadrant_vectors.filter(lambda v: v not in fan.ray_index))
        return kind, Fan(2, rays + (extra,), cones)
    if kind == "no top":  # (0, 1) and its cone taken away
        top = fan.ray_index[(0, 1)]
        return kind, relabel(fan, [None if i == top else i - (i > top) for i in range(len(rays))])
    return "whole", fan


@settings(max_examples=400, deadline=None)
@given(quadrant_fans())
def test_the_walk_accepts_exactly_the_fans_the_facet_test_accepts(kind_fan):
    kind, fan = kind_fan
    defect = fan._facet_volume_defect()
    assert fan._walks_the_quadrant() == (defect is None)
    # a refused fan keeps the facet test's message
    assert fan.subdivision_defect == defect
    if kind == "whole":
        assert defect is None
    elif kind in ("dropped", "unused", "no top"):
        assert defect is not None


def test_the_walk_refuses_each_way_a_fan_fails():
    rays = ((1, 0), (0, 1), (1, 1))
    # the ray order is not the angular order: the cone runs from ray 1 to 0
    assert Fan(2, ((0, 1), (1, 0)), ((0, 1),))._walks_the_quadrant()
    assert Fan(2, rays[::-1], ((0, 1), (0, 2)))._walks_the_quadrant()
    # the walk takes (0, 2) and (2, 1) to the top and leaves a cone behind
    chord = Fan(2, rays, ((0, 1), (0, 2), (1, 2)))
    assert chord.subdivision_defect == "boundary facet [(0, 1)] bounds 2 cones"
    # one step covers the quadrant, and a ray is left over
    assert Fan(2, rays, ((0, 1),)).subdivision_defect == "ray (1, 1) spans no cone"
    # every cone and ray is walked, and the walk stops short of (0, 1)
    short = Fan(2, ((1, 0), (1, 1)), ((0, 1),))
    assert short.subdivision_defect == "interior facet [(1, 1)] bounds 1 cones, not 2"
    # no walk: (1, 0) is no ray, or the fan has no cone
    assert Fan(2, ((1, 1), (0, 1)), ((0, 1),)).subdivision_defect is not None
    assert Fan(2, (), ()).subdivision_defect == "the cones fill 0 of the orthant, not all of it"
    assert Fan(2, ((1, 1),), ()).subdivision_defect == "ray (1, 1) spans no cone"


def test_full_dimensional_cone_seeds_its_determinant():
    cone = Cone(((1, 0), (2, 5)))
    assert cone.__dict__["det"] == 5 == cone.det
    with pytest.raises(PreconditionError, match="linearly dependent"):
        Cone(((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    with pytest.raises(PreconditionError, match="linearly dependent"):
        Cone(((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1)))
    # a cone is full-dimensional: n generators of length n
    with pytest.raises(PreconditionError, match="3 generators of length 3"):
        Cone(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
    with pytest.raises(PreconditionError, match="2 generators of length 2"):
        Cone(((1, 0, 1), (0, 1, 1)))


# ---------------------------------------------------------------------------
# the integer kernel: coordinates as numerators over |det|

from fractions import Fraction

from hypothesis import assume


def reference_coordinates(gens, v):
    """Solve sum lam_j gens[j] = v by Gaussian elimination over Fractions."""
    n = len(v)
    m = [[Fraction(g[i]) for g in gens] + [Fraction(v[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return tuple(row[n] for row in m)


@st.composite
def cones_and_vectors(draw):
    """A full-dimensional cone, smooth or not, and a vector in or out of it.

    The vector is a nonnegative combination of the generators (on a face
    when a weight is 0) or a free one; reversing the generators flips the
    sign of det in dimensions 2 and 3.
    """
    n = draw(st.integers(1, 4))
    gen = st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any).map(primitive_part)
    gens = draw(st.lists(gen, min_size=n, max_size=n, unique=True))
    try:
        cone = Cone(tuple(gens))
    except PreconditionError:
        assume(False)
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        v = tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(n))
    else:
        v = tuple(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    return cone, v


@settings(max_examples=300, deadline=None)
@given(cones_and_vectors(), st.booleans())
def test_integer_coordinates_are_barycentric_times_det(cone_v, reverse):
    cone, v = cone_v
    if reverse:
        cone = Cone(tuple(reversed(cone.gens)))
    ref = reference_coordinates(cone.gens, v)
    d = abs(cone.det)
    nums = cone.coords(v)
    if all(x >= 0 for x in ref):
        assert nums == tuple(x * d for x in ref)
        assert all(type(x) is int for x in nums)
        assert cone.barycentric(v) == ref
    else:
        assert nums is None and cone.barycentric(v) is None


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_locate_gives_numerators_over_det(data):
    fan = data.draw(refined_fans(max_rays=5))  # no resolve: cones stay non-smooth
    v = data.draw(subdivision_vectors(fan))
    loc = fan.locate(v)
    ref = reference_locate(fan, v)
    assert loc == ref
    d = abs(loc.cone.det)
    assert all(type(x) is int for x in loc.nums)
    assert tuple(Fraction(x, d) for x in loc.nums) == reference_coordinates(loc.cone.gens, v)


@settings(max_examples=300, deadline=None)
@given(cones_and_vectors(), st.booleans(), st.data())
def test_star_piece_equals_a_cone_built_from_scratch(cone_v, reverse, data):
    cone, v = cone_v
    if reverse:
        cone = Cone(tuple(reversed(cone.gens)))
    assume(any(v))
    v = primitive_part(v)
    nums = cone.coords(v)
    assume(nums is not None)
    j = data.draw(st.sampled_from([k for k, x in enumerate(nums) if x > 0]))
    piece = cone._star_piece(j, v, nums)
    gens = cone.gens[:j] + cone.gens[j + 1 :] + (v,)
    try:
        ref = Cone(gens)
    except PreconditionError:  # v is gens[j] itself: a repeated generator
        assume(False)
    assert piece == ref
    assert piece.det == ref.det
    assert piece._inward_adjugate == ref._inward_adjugate


# ---------------------------------------------------------------------------
# invariant breaches no command reaches, with the fault planted


def test_subdivision_refuses_a_vector_that_leaves_its_cone(monkeypatch):
    # pieces whose coordinates hold nothing: the second vector homed in the
    # split cone then lies in none of its pieces
    from bdivkit.exact import trusted

    original = Cone._star_piece

    def hollow(self, j, v, nums):
        piece = original(self, j, v, nums)
        rows = tuple(tuple(-x for x in row) for row in piece._inward_adjugate)
        return trusted(Cone, gens=piece.gens, det=piece.det, _inward_adjugate=rows)

    monkeypatch.setattr(Cone, "_star_piece", hollow)
    with pytest.raises(InvariantViolation, match="left its cone"):
        insert_rays(orthant_fan(3), [(1, 1, 1), (1, 2, 3)])


def test_resolve_refuses_a_pivot_that_is_already_a_ray():
    # the cones overlap: (1, 1, 0), the one parallelepiped point of the first
    # cone, is a ray of the second, so the step would add it twice
    fan = Fan(3, ((1, 0, 0), (1, 2, 0), (0, 0, 1), (1, 1, 0)), ((0, 1, 2), (0, 2, 3)))
    with pytest.raises(InvariantViolation, match=r"pivot \(1, 1, 0\) is already a ray"):
        insert_rays(fan, ())
    # on a surface: (1, 1) lies inside the one cone and spans none
    fan = Fan(2, ((1, 0), (1, 2), (1, 1)), ((0, 1),))
    with pytest.raises(InvariantViolation, match=r"pivot \(1, 1\) is already a ray"):
        insert_rays(fan, ())
    with pytest.raises(InvariantViolation, match="failed to make progress"):
        reference_resolve(fan)


# ---------------------------------------------------------------------------
# resolution inside the insertion: integer residues, one fan per call


@settings(max_examples=200, deadline=None)
@given(cones_and_vectors())
def test_integer_residues_equal_the_fraction_closure(cone_v):
    cone, _ = cone_v
    points = cone.parallelepiped_points()
    assert points == reference_parallelepiped_points(cone)
    assert len(points) == abs(cone.det) - 1
    if len(cone.gens) == 2 and points:
        arc = cone.gens if cone.det > 0 else cone.gens[::-1]
        assert fans_mod._arc_pivot(*arc) == points[0]


def test_resolving_a_long_arc_builds_one_fan(monkeypatch):
    # {(1, 0), (1, 200)} resolves in 199 pivots, (1, 1) to (1, 199), and
    # the insertion builds one Fan for all of them
    fan = cone_fan((1, 0), (1, 200))
    built = []
    real = fans_mod.trusted

    def trusted(cls, **fields):
        built.append(cls)
        return real(cls, **fields)

    monkeypatch.setattr(fans_mod, "trusted", trusted)
    out = insert_rays(fan, ())
    assert built.count(Fan) == 1
    assert out.rays == fan.rays + tuple((1, k) for k in range(1, 200))
    assert sorted(out.rays[2:]) == sorted(hirzebruch_jung_rays(1, 200))
