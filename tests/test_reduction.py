import random
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest

from bdivkit.exact import PreconditionError, primitive_part
from bdivkit.fans import orthant_fan, star_subdivide
from bdivkit.logpairs import (
    BDivisor,
    LocalPair,
    ModelDivisor,
    pullback_gap,
    relative_pullback_coeff,
)
from bdivkit.reduction import (
    LocalModel,
    ReductionState,
    build_cut,
    initial_state,
    pair_weight_witness,
    pick_fiber_minimizer,
    positive_pullback_prefixes,
    run_reduction,
    state_weight,
    stratum_weight,
    verify_reduction,
)


def coeff(md, ray):
    """The coefficient of a model divisor at one of its fan's rays."""
    return md.ray_coeffs[md.fan.ray_index[ray]]


def gaps_at(state, located):
    """The pullback gap of the state's trace at each located sigma."""
    return {vec: pullback_gap(state.phi, loc) for vec, loc in located.items()}


def make_model(*coeffs):
    return LocalModel(LocalPair(tuple(coeffs)))


def test_local_model_ordering():
    with pytest.raises(PreconditionError):
        make_model(F(1), F(1, 2))
    m = make_model(F(1, 2), F(1))
    assert m.s == 1 and m.w == 1
    model, bdiv, perm = LocalModel.arrange(
        LocalPair((F(1), F(1, 2))), BDivisor((F(1), F(1, 2)), {(2, 1): F(0)})
    )
    assert model.pair.coeffs == (F(1, 2), F(1))
    assert perm == (1, 0)
    assert bdiv.deviations == {(1, 2): F(0)}


def test_prefixes_examples():
    assert positive_pullback_prefixes(make_model(F(1, 2))) == [(0,), (1,)]
    got = positive_pullback_prefixes(make_model(F(1, 2), F(2, 3)))
    assert set(got) == {(0, 0), (1, 0), (0, 1), (0, 2), (1, 1)}
    assert got == sorted(got)
    assert positive_pullback_prefixes(make_model(F(0))) == [(0,)]


def test_prefixes_match_naive_enumeration():
    rng = random.Random(3)
    pool = [F(0), F(1, 2), F(2, 3), F(3, 4), F(6, 7)]
    for _ in range(40):
        s = rng.choice([1, 2, 3])
        cs = tuple(rng.choice(pool) for _ in range(s))
        model = make_model(*cs)
        got = positive_pullback_prefixes(model)
        bound = 10  # generous: 1/(1-c) <= 7 for the pool
        naive = [
            v
            for v in product(range(bound + 1), repeat=s)
            if sum((e * (1 - c) for e, c in zip(v, cs)), F(0)) < 1
        ]
        assert got == sorted(naive)


def test_prefixes_downward_closed():
    model = make_model(F(1, 2), F(2, 3), F(6, 7))
    fset = set(positive_pullback_prefixes(model))
    for v in fset:
        for i in range(len(v)):
            if v[i] > 0:
                smaller = v[:i] + (v[i] - 1,) + v[i + 1 :]
                assert smaller in fset


def test_prefixes_reject_coefficient_one():
    model = make_model(F(1, 2), F(1))
    # model.s == 1, so only the first coefficient feeds the prefix box
    assert positive_pullback_prefixes(model) == [(0,), (1,)]


def test_stratum_weight_examples():
    # no deviations, trace values: no strict witness anywhere
    m = make_model(F(1, 2), F(1))
    b0 = BDivisor(m.pair.coeffs, {})
    assert pair_weight_witness(m, b0) == (-1, None)

    b = BDivisor(m.pair.coeffs, {(1, 2): F(0)})
    w, witness = stratum_weight(m, b, (0, 1))
    assert w == 1 and witness.vec == (1, 2)
    assert witness.pullback == F(1, 2)

    m2 = make_model(F(1, 2), F(2, 3))
    b2 = BDivisor(m2.pair.coeffs, {(1, 1): F(0)})
    w2, witness2 = stratum_weight(m2, b2, (0, 1))
    assert w2 == 0 and witness2.pullback == F(1, 6)
    assert pair_weight_witness(m2, b2)[0] == 0


def test_stratum_weight_divisorial_witness():
    # a pair value below the model coefficient witnesses on the divisor
    m = make_model(F(1, 2), F(1))
    b = BDivisor((F(1, 4), F(1)), {})
    w, witness = stratum_weight(m, b, (0,))
    assert w == 0 and witness.vec == (1, 0)


def test_pick_fiber_minimizer_examples():
    m = make_model(F(1, 2), F(1))
    b = BDivisor(m.pair.coeffs, {(1, 2): F(0), (1, 1): F(1, 3)})
    assert pick_fiber_minimizer(m, b, (1,)) == (1, 2)

    b0 = BDivisor(m.pair.coeffs, {})
    assert pick_fiber_minimizer(m, b0, (1,)) == (1, 1)

    # unique candidate below the default wins its fibre
    b1 = BDivisor(m.pair.coeffs, {(1, 3): F(1, 2)})
    assert pick_fiber_minimizer(m, b1, (1,)) == (1, 3)

    with pytest.raises(PreconditionError):
        pick_fiber_minimizer(m, b0, (5,))


def test_pick_fiber_minimizer_empty_fibre():
    m = make_model(F(1, 2))  # w = 0
    b = BDivisor(m.pair.coeffs, {})
    with pytest.raises(PreconditionError):
        pick_fiber_minimizer(m, b, (0,))


def test_build_cut_single_sigma():
    # one extraction at (1,1): the new ray carries min(b1+b2-1, B value)
    pair = LocalPair((F(2, 3), F(2, 3)))
    b = BDivisor(pair.coeffs, {(1, 1): F(1, 6)})
    state = initial_state(LocalModel(pair), b)
    new_state, step = build_cut(state, [(1, 1)])
    assert coeff(new_state.phi, (1, 1)) == min(F(1, 3), F(1, 6))
    assert coeff(new_state.phi, (1, 0)) == F(2, 3)
    assert coeff(new_state.phi, (0, 1)) == F(2, 3)
    theta = dict(step.theta)
    assert theta[(1, 1)] == F(1, 6)


def test_build_cut_rejects_zero_pullback_and_rays():
    pair = LocalPair((F(1, 4), F(1, 4)))
    state = initial_state(LocalModel(pair), BDivisor(pair.coeffs, {}))
    with pytest.raises(PreconditionError):
        build_cut(state, [(1, 1)])  # pullback coefficient 0
    pair2 = LocalPair((F(2, 3), F(2, 3)))
    state2 = initial_state(LocalModel(pair2), BDivisor(pair2.coeffs, {}))
    with pytest.raises(PreconditionError):
        build_cut(state2, [(1, 0)])  # already a divisor
    with pytest.raises(PreconditionError):
        build_cut(state2, [])


def test_build_cut_klt_branch_reaches_weight_minus_one():
    # extracting every positive-pullback valuation leaves no witness at all
    pair = LocalPair((F(1, 2), F(2, 3)))
    b = BDivisor(pair.coeffs, {})
    state = initial_state(LocalModel(pair), b)
    prefixes = positive_pullback_prefixes(LocalModel(pair))
    sigmas = [
        f
        for f in prefixes
        if any(f)
        and sum(1 for e in f if e) > 1  # units are already divisors
        and gcd(*f) == 1
    ]
    new_state, _ = build_cut(state, sigmas)
    assert state_weight(new_state) == -1


def test_cut_keeps_trace_below_old_pullback():
    pair = LocalPair((F(1, 2), F(1)))
    b = BDivisor(pair.coeffs, {(1, 2): F(0)})
    state = initial_state(LocalModel(pair), b)
    new_state, _ = build_cut(state, [(1, 2)])
    for ray, c in zip(new_state.fan.rays, new_state.phi.ray_coeffs):
        assert c <= relative_pullback_coeff(state.phi, ray)


def test_worked_example_reduction():
    model = make_model(F(1, 2), F(1))
    b = BDivisor(model.pair.coeffs, {(1, 2): F(0)})
    trace = run_reduction(model, b)
    assert trace.initial_weight == 1
    assert trace.terminated_weight == -1
    weights = [s.weight_before for s in trace.steps] + [trace.terminated_weight]
    assert all(a > b2 for a, b2 in zip(weights, weights[1:]))
    assert (1, 2) in trace.final_state.fan.ray_set
    assert coeff(trace.final_state.phi, (1, 2)) == 0
    assert verify_reduction(trace.final_state, 12).ok


def test_reduction_trivial_case():
    model = make_model(F(1, 2), F(2, 3))
    trace = run_reduction(model, BDivisor(model.pair.coeffs, {}))
    assert trace.steps == () and trace.terminated_weight == -1


def test_reduction_3d_example():
    model = make_model(F(2, 3), F(2, 3), F(1))
    b = BDivisor(model.pair.coeffs, {(1, 1, 2): F(0)})
    trace = run_reduction(model, b)
    weights = [s.weight_before for s in trace.steps] + [trace.terminated_weight]
    assert weights[0] <= 1
    assert all(a > b2 for a, b2 in zip(weights, weights[1:]))
    assert trace.terminated_weight == -1
    assert verify_reduction(trace.final_state, 8).ok


def test_weight_never_increases_under_any_cut():
    rng = random.Random(23)
    pool = [F(0), F(1, 2), F(2, 3), F(1)]
    for _ in range(25):
        n = rng.choice([2, 3])
        coeffs = sorted(
            (rng.choice(pool) for _ in range(n)), key=lambda c: c == 1
        )
        pair = LocalPair(tuple(coeffs))
        devs = {}
        for _ in range(rng.randint(1, 2)):
            v = tuple(rng.randint(0, 3) for _ in range(n))
            if all(e == 0 for e in v):
                continue
            v = primitive_part(v)
            if sum(1 for e in v if e) == 1 and max(v) == 1:
                continue
            devs[v] = F(rng.randint(0, 2), 3)
        b = BDivisor(pair.coeffs, devs)
        state = initial_state(LocalModel(pair), b)
        before = state_weight(state)
        # an arbitrary legal cut (not the driver's choice)
        candidates = [
            v
            for v in devs
            if relative_pullback_coeff(state.phi, v) > 0
        ]
        if not candidates:
            continue
        new_state, _ = build_cut(state, candidates[:1])
        assert state_weight(new_state) <= before


def test_unlisted_valuations_never_witness():
    # B defaults to 1 and no pullback coefficient exceeds 1
    pair = LocalPair((F(1, 2), F(1)))
    b = BDivisor(pair.coeffs, {(1, 2): F(0)})
    state = initial_state(LocalModel(pair), b)
    for v in product(range(5), repeat=2):
        if all(e == 0 for e in v):
            continue
        g = gcd(v[0], v[1])
        v = (v[0] // g, v[1] // g)
        if v in state.bdiv.deviations or v in state.fan.ray_set:
            continue
        assert relative_pullback_coeff(state.phi, v) <= 1 == state.value(v)


def test_descent_chain_instrumented():
    # the inequality chain behind the weight drop, checked exactly
    pair = LocalPair((F(1, 2), F(1)))
    b = BDivisor(pair.coeffs, {(1, 2): F(0)})
    state = initial_state(LocalModel(pair), b)
    sigma = (1, 2)
    y_fan = star_subdivide(state.fan, sigma)
    gamma = ModelDivisor(
        y_fan,
        tuple(
            min(relative_pullback_coeff(state.phi, r), state.value(r))
            for r in y_fan.rays
        ),
    )
    new_state, _ = build_cut(state, [sigma])
    for k in range(2, 7):
        nu = (1, k)  # same prefix, nu >= sigma
        l_phi2 = relative_pullback_coeff(new_state.phi, nu)
        l_gamma_nu = relative_pullback_coeff(gamma, nu)
        l_gamma_sigma = relative_pullback_coeff(gamma, sigma)
        assert l_phi2 <= l_gamma_nu <= l_gamma_sigma
        assert l_gamma_sigma <= state.value(sigma) <= state.value(nu)


def test_theta_matches_naive_computation():
    # the closed form must agree with interpolating the full divisor on every
    # one-ray extraction Y_sigma, on the orthant, on fans refined by a first
    # cut and on non-smooth fans, for sigma with B below and at or above its
    # pullback
    from bdivkit.fans import insert_rays, is_smooth
    from bdivkit.logpairs import pullback_trace, unit_index
    from bdivkit.reduction import _theta_coeffs

    def naive_theta(state, sigmas, rays):
        gammas = []
        for s in sigmas:
            y_fan = star_subdivide(state.fan, s)
            gammas.append(
                ModelDivisor(
                    y_fan,
                    tuple(
                        min(relative_pullback_coeff(state.phi, r), state.value(r))
                        for r in y_fan.rays
                    ),
                )
            )
        return tuple(
            min(relative_pullback_coeff(g, r) for g in gammas) for r in rays
        )

    rng = random.Random(31337)

    def random_valuation(n, top):
        while True:
            v = tuple(rng.randint(0, top) for _ in range(n))
            if any(v) and unit_index(primitive_part(v)) is None:
                return primitive_part(v)

    pool = [F(0), F(1, 2), F(2, 3), F(3, 4), F(6, 7), F(1)]
    values = [F(0), F(1, 3), F(1, 2), F(5, 6)]
    seen = dict.fromkeys(
        ["n2", "n3", "refined", "non_smooth", "below", "not_below", "shared_face"], 0
    )
    for _ in range(600):
        n = rng.choice([2, 3])
        coeffs = sorted(
            (rng.choice(pool) for _ in range(n)), key=lambda c: c == 1
        )
        pair = LocalPair(tuple(coeffs))
        devs = {
            random_valuation(n, 3): rng.choice(values)
            for _ in range(rng.randint(1, 3))
        }
        state = initial_state(LocalModel(pair), BDivisor(pair.coeffs, devs))
        roll = rng.random()
        if roll < 0.3:
            # a non-smooth old fan: star subdivisions without resolve, so
            # rays read from the ray table and sigmas found by a scan both
            # sit over |det| > 1; the trace is the pullback, listed in B on
            # the rays
            fan = state.fan
            for _ in range(rng.randint(1, 2)):
                fan = star_subdivide(fan, random_valuation(n, 4))
            phi = pullback_trace(pair, fan)
            on_rays = {
                r: c for r, c in zip(fan.rays, phi.ray_coeffs) if unit_index(r) is None
            }
            state = ReductionState(fan, phi, BDivisor(pair.coeffs, {**devs, **on_rays}))
        elif roll < 0.7:
            first = [
                v for v in devs if relative_pullback_coeff(state.phi, v) > 0
            ]
            if first:
                state, _ = build_cut(state, first)
        # listed sigmas get a random B, unlisted ones keep the default 1
        sigmas = []
        updates = {}
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                v = random_valuation(n, 4)
            else:
                # the sum of two generators of a maximal cone lies on their
                # common face, which a refined fan may share between cones
                a, b = rng.sample(rng.choice(state.fan.cones), 2)
                ra, rb = state.fan.rays[a], state.fan.rays[b]
                v = primitive_part(tuple(x + y for x, y in zip(ra, rb)))
            if v in state.fan.ray_set or v in sigmas:
                continue
            if relative_pullback_coeff(state.phi, v) == 0:
                continue
            if rng.random() < 0.6:
                updates[v] = rng.choice(values)
            sigmas.append(v)
        if not sigmas:
            continue
        bdiv = BDivisor(state.bdiv.pair_coeffs, {**state.bdiv.deviations, **updates})
        state = ReductionState(state.fan, state.phi, bdiv)
        new_fan = insert_rays(state.fan, sigmas)
        located = {v: state.fan.locate(v) for v in sigmas}
        fast = _theta_coeffs(state, located, gaps_at(state, located), new_fan.rays)
        assert fast == naive_theta(state, sigmas, new_fan.rays)

        seen[f"n{n}"] += 1
        seen["refined"] += len(state.fan.cones) > 1
        seen["non_smooth"] += not is_smooth(state.fan)
        for s in sigmas:
            below = state.value(s) < relative_pullback_coeff(state.phi, s)
            seen["below" if below else "not_below"] += 1
            holders = [c for c in state.fan.max_cones if c.coords(s) is not None]
            seen["shared_face"] += len(holders) > 1
    assert all(count >= 10 for count in seen.values()), seen


def test_multi_cut_regression():
    # two deviations in the same fibre: the minimiser is extracted first and
    # the survivor needs a second round in a chart of the refined model
    pair = LocalPair((F(1), F(1)))
    b = BDivisor(pair.coeffs, {(3, 2): F(1, 3), (4, 1): F(1, 2)})
    trace = run_reduction(LocalModel(pair), b)
    assert [s.weight_before for s in trace.steps] == [2, 1]
    assert trace.terminated_weight == -1
    assert (3, 2) in trace.final_state.fan.ray_set
    assert (4, 1) in trace.final_state.fan.ray_set
    assert verify_reduction(trace.final_state, 12).ok


@pytest.mark.parametrize(
    "coeffs, devs",
    [
        ((F(1, 2), F(2, 3), F(1)), {(1, 1, 3): F(0), (1, 1, 0): F(0)}),
        ((F(2, 3), F(2, 3), F(1)), {(1, 1, 5): F(0), (1, 1, 1): F(0)}),
    ],
)
def test_cut_splits_a_witness_cone_across_a_piece(coeffs, devs):
    # the fibre minimiser of prefix (1, 1) is extracted with (0,1,1) and
    # (1,0,1), whose cone with (0,0,1) holds the other deviation across the
    # wall x = y of that extraction; without the split at (1,1,2) the
    # deviation keeps its weight-one centre and pullback 1/6 or 1/3
    pair = LocalPair(coeffs)
    trace = run_reduction(LocalModel(pair), BDivisor(pair.coeffs, devs))
    assert [s.weight_before for s in trace.steps] == [1]
    assert trace.terminated_weight == -1
    assert (1, 1, 2) in trace.steps[0].rays_added
    assert verify_reduction(trace.final_state, 12).ok


def test_randomized_reductions_small():
    rng = random.Random(77)
    pool = [F(0), F(1, 2), F(2, 3), F(6, 7), F(1)]
    values = [F(0), F(1, 7), F(1, 2), F(5, 6)]
    for _ in range(40):
        n = rng.choice([2, 2, 3])
        coeffs = sorted(
            (rng.choice(pool) for _ in range(n)), key=lambda c: c == 1
        )
        if n == 3:
            coeffs = [min(c, F(2, 3)) if c < 1 else c for c in coeffs]
        pair = LocalPair(tuple(coeffs))
        devs = {}
        for _ in range(rng.randint(0, 3)):
            v = tuple(rng.randint(0, 4) for _ in range(n))
            if all(e == 0 for e in v):
                continue
            v = primitive_part(v)
            if sum(1 for e in v if e) == 1 and max(v) == 1:
                continue
            devs[v] = rng.choice(values)
        b = BDivisor(pair.coeffs, devs)
        trace = run_reduction(LocalModel(pair), b)
        weights = [s.weight_before for s in trace.steps] + [
            trace.terminated_weight
        ]
        assert all(a > b2 for a, b2 in zip(weights, weights[1:]))
        assert trace.terminated_weight == -1
        assert verify_reduction(trace.final_state, 10).ok


def test_verify_reports_planted_violation():
    fan = star_subdivide(orthant_fan(2), (1, 1))
    coeffs = []
    for r in fan.rays:
        coeffs.append({(1, 0): F(1, 2), (0, 1): F(1, 2), (1, 1): F(1)}[r])
    phi = ModelDivisor(fan, tuple(coeffs))
    b = BDivisor((F(1, 2), F(1, 2)), {(1, 1): F(0)})
    state = ReductionState(fan, phi, b)
    report = verify_reduction(state, 6)
    assert not report.ok
    assert report.violation[0] == (1, 1)
    assert report.violation[1] == 1 and report.violation[2] == 0


def test_verify_trivial_state():
    pair = LocalPair((F(1, 2), F(2, 3)))
    state = initial_state(LocalModel(pair), BDivisor(pair.coeffs, {}))
    report = verify_reduction(state, 8)
    assert report.ok and report.violation is None


def test_initial_state_requires_matching_trace():
    pair = LocalPair((F(1, 2), F(1)))
    with pytest.raises(PreconditionError):
        initial_state(LocalModel(pair), BDivisor((F(1, 4), F(1)), {}))


def test_state_json_roundtrip():
    model = make_model(F(1, 2), F(1))
    b = BDivisor(model.pair.coeffs, {(1, 2): F(0)})
    trace = run_reduction(model, b)
    data = trace.final_state.to_json()
    assert ReductionState.from_json(data).to_json() == data


# ---------------------------------------------------------------------------
# the verifier against the exhaustive box scan it replaces

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdivkit.exact import InvariantViolation
from bdivkit.fans import Fan
from bdivkit.logpairs import unit_index
from bdivkit.reduction import MAX_BOX, VerifyReport, primitive_box_count


def reference_verify(state, box):
    """Scan rays, deviations and every primitive box vector in lex order."""
    candidates = set(state.fan.rays)
    candidates.update(state.bdiv.deviations)
    for vec in product(range(box + 1), repeat=state.fan.n):
        g = 0
        for e in vec:
            g = gcd(g, e)
        if g == 1:
            candidates.add(vec)
    checked = 0
    for vec in sorted(candidates):
        pb = relative_pullback_coeff(state.phi, vec)
        bv = state.value(vec)
        checked += 1
        if pb > bv:
            return VerifyReport(ok=False, box=box, checked=checked, violation=(vec, pb, bv))
    return VerifyReport(ok=True, box=box, checked=checked, violation=None)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 9),
    st.lists(st.integers(0, 11), min_size=4, max_size=4),
)
def test_primitive_box_count_matches_enumeration(n, box, bound):
    upto = tuple(bound[:n]) if any(bound[:n]) else None
    points = [
        v for v in product(range(box + 1), repeat=n)
        if any(v) and gcd(*v) == 1 and (upto is None or v <= upto)
    ]
    assert primitive_box_count(n, box, upto) == len(points)


@st.composite
def reduced_states(draw):
    """A reduction output, sometimes with a violation planted in it."""
    n = draw(st.sampled_from([1, 2, 2, 3]))
    pool = [F(0), F(1, 2), F(2, 3), F(6, 7), F(1)]
    coeffs = sorted(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                    key=lambda c: c == 1)
    pair = LocalPair(tuple(coeffs))
    vec = st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any).map(
        lambda v: primitive_part(tuple(v)))
    devs = {}
    for v in draw(st.lists(vec, max_size=3)):
        if sum(1 for e in v if e) > 1:
            devs[v] = draw(st.sampled_from([F(0), F(1, 7), F(1, 2)]))
    state = run_reduction(LocalModel(pair), BDivisor(pair.coeffs, devs)).final_state
    plant = draw(st.sampled_from(
        ["none", "ray", "deviation", "off_box", "lowered", "boundary"]))
    if plant == "ray":
        # raise the trace at a ray above its B-value
        i = draw(st.integers(0, len(state.fan.rays) - 1))
        bv = state.value(state.fan.rays[i])
        if bv < 1:
            coeffs = list(state.phi.ray_coeffs)
            coeffs[i] = draw(st.sampled_from([c for c in (bv + (1 - bv) / 2, F(1))]))
            state = ReductionState(state.fan, ModelDivisor(state.fan, tuple(coeffs)), state.bdiv)
    elif plant in ("deviation", "off_box"):
        # B = 0 violates wherever the pullback is positive
        top = 9 if plant == "deviation" else 30
        vecs = st.lists(st.integers(0, top), min_size=n, max_size=n).filter(any)
        for v in draw(st.lists(vecs, min_size=8, max_size=8)):
            v = primitive_part(tuple(v))
            if (
                sum(1 for e in v if e) > 1
                and v not in state.fan.ray_set
                and relative_pullback_coeff(state.phi, v) > 0
            ):
                bdiv = BDivisor(state.bdiv.pair_coeffs, {**state.bdiv.deviations, v: F(0)})
                state = ReductionState(state.fan, state.phi, bdiv)
                break
    elif plant in ("lowered", "boundary"):
        # B at a listed valuation lowered below its pullback, or set equal to it
        listed = sorted(
            v for v in set(state.fan.rays).union(state.bdiv.deviations)
            if unit_index(v) is None and relative_pullback_coeff(state.phi, v) > 0
        )
        if listed:
            v = draw(st.sampled_from(listed))
            value = relative_pullback_coeff(state.phi, v)
            if plant == "lowered":
                value *= draw(st.sampled_from([F(0), F(1, 3), F(1, 2), F(6, 7)]))
            bdiv = BDivisor(state.bdiv.pair_coeffs, {**state.bdiv.deviations, v: value})
            state = ReductionState(state.fan, state.phi, bdiv)
    return state


@settings(max_examples=200, deadline=None)
@given(reduced_states(), st.integers(1, 8))
def test_verify_matches_the_box_scan(state, box):
    report = verify_reduction(state, box)
    assert report == reference_verify(state, box)
    if report.violation:
        assert all(type(x) is F for x in report.violation[1:])


def test_verify_counts_past_a_violation_outside_the_box():
    fan = star_subdivide(orthant_fan(2), (1, 1))
    phi = ModelDivisor(fan, (F(1, 2), F(1, 2), F(1)))
    b = BDivisor((F(1, 2), F(1, 2)), {(9, 10): F(0), (3, 4): F(0), (3, 1): F(0)})
    state = ReductionState(fan, phi, b)
    report = verify_reduction(state, 2)
    assert report == reference_verify(state, 2)
    assert report.violation == ((3, 4), F(1, 2), F(0))
    # the primitive vectors of [0, 2]^2, then (3, 1) and (3, 4)
    assert report.checked == 5 + 2


def test_verify_rejects_a_fan_that_is_no_subdivision():
    fan = Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (0, 2)))
    phi = ModelDivisor(fan, (F(1, 2), F(1, 2), F(1)))
    state = ReductionState(fan, phi, BDivisor((F(1, 2), F(1, 2)), {}))
    with pytest.raises(InvariantViolation):
        verify_reduction(state, 4)


def test_verify_box_cap():
    pair = LocalPair((F(1, 2), F(2, 3)))
    state = initial_state(LocalModel(pair), BDivisor(pair.coeffs, {}))
    with pytest.raises(PreconditionError, match="MAX_BOX"):
        verify_reduction(state, MAX_BOX + 1)
    assert verify_reduction(state, 10_000).checked == primitive_box_count(2, 10_000)


# ---------------------------------------------------------------------------
# prefixes on integer weights, against the box scan over Fractions

from math import floor, prod


def reference_prefixes(model):
    """The box scan: every v with v_i <= floor(1/(1-c_i)), summed in Fractions."""
    cs = model.pair.coeffs[: model.s]
    bounds = [floor(F(1) / (1 - c)) for c in cs]
    return sorted(
        v for v in product(*(range(b + 1) for b in bounds))
        if sum((e * (1 - c) for e, c in zip(v, cs)), F(0)) < 1
    )


_SUB_ONE = st.one_of(
    st.just(F(0)), st.fractions(min_value=0, max_value=F(59, 60), max_denominator=60)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_SUB_ONE, min_size=0, max_size=4), st.integers(0, 2), st.data())
def test_prefixes_equal_the_box_scan(cs, w, data):
    cs = [c for c in cs if c < 1]
    box = prod(floor(F(1) / (1 - c)) + 1 for c in cs)
    assume(cs or w)
    assume(box <= 20_000)
    model = make_model(*cs, *[F(1)] * w)
    expected = reference_prefixes(model)
    assert positive_pullback_prefixes(model) == expected
    # pick_fiber_minimizer accepts exactly these prefixes
    bdiv = BDivisor(model.pair.coeffs, {})
    f = tuple(data.draw(st.lists(st.integers(0, 3), min_size=len(cs), max_size=len(cs))))
    try:
        pick_fiber_minimizer(model, bdiv, f)
        accepted = True
    except PreconditionError as exc:
        accepted = "no positive pullback coefficient" not in str(exc)
    assert accepted == (f in set(expected))


# ---------------------------------------------------------------------------
# what build_cut builds unchecked, against the validating constructors

from unittest import mock

import bdivkit.reduction as reduction_mod
from bdivkit.fans import Cone


@st.composite
def reduction_inputs(draw):
    """A model and a b-divisor with a witness, klt or with a coefficient one."""
    n = draw(st.sampled_from([2, 3]))
    klt = draw(st.booleans())
    pool = [F(1, 2), F(2, 3)] + ([F(6, 7)] if n == 2 else [])
    coeffs = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if not klt:
        coeffs[-1] = F(1)
    pair = LocalPair(tuple(coeffs))
    vec = st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(
        lambda v: sum(1 for e in v if e) > 1
    ).map(lambda v: primitive_part(tuple(v)))
    devs = {v: draw(st.sampled_from([F(0), F(1, 7)])) for v in draw(st.lists(vec, max_size=3))}
    witness = vec.filter(lambda v: relative_pullback_coeff(ModelDivisor(
        orthant_fan(n), pair.coeffs), v) > 0)
    devs[draw(witness)] = F(0)
    return LocalModel(pair), BDivisor(pair.coeffs, devs)


@settings(max_examples=150, deadline=None)
@given(reduction_inputs())
def test_cut_states_equal_their_validated_rebuilds(inputs):
    states = []
    build_cut_checked = reduction_mod.build_cut

    def recording(state, sigmas):
        new_state, step = build_cut_checked(state, sigmas)
        states.append(new_state)
        return new_state, step

    with mock.patch.object(reduction_mod, "build_cut", recording):
        run_reduction(*inputs)
    assert states
    for state in states:
        fan = state.fan
        assert Fan(fan.n, fan.rays, fan.cones) == fan
        for key, cone in zip(fan.cones, fan.max_cones):
            # the chart code reads a cone's generators in the order of its key
            assert cone.gens == tuple(fan.rays[i] for i in key)
            fresh = Cone(cone.gens)
            assert (cone.det, cone._inward_adjugate) == (fresh.det, fresh._inward_adjugate)
        assert ModelDivisor(fan, state.phi.ray_coeffs) == state.phi
        assert BDivisor(state.bdiv.pair_coeffs, state.bdiv.deviations) == state.bdiv
        for ray in fan.rays:
            loc = fan.locate(ray)
            assert loc.nums == loc.cone.coords(ray)


# ---------------------------------------------------------------------------
# the sigma locations the driver hands to build_cut, and build_cut to
# _theta_coeffs

import bdivkit.cli as cli_mod
from bdivkit.fans import insert_rays


def assert_valid_location(fan, vec, loc):
    """loc locates vec in a maximal cone of fan: sum nums_j gen_j = |det| vec."""
    pos = fan.cones.index(loc.ray_indices)
    assert loc.cone == fan.max_cones[pos]
    assert all(x >= 0 for x in loc.nums)
    combo = tuple(sum(x * g[i] for x, g in zip(loc.nums, loc.cone.gens)) for i in range(fan.n))
    assert combo == tuple(abs(loc.cone.det) * e for e in vec)


@settings(max_examples=100, deadline=None)
@given(reduction_inputs())
def test_theta_reads_handed_in_locations_as_it_would_find_them(inputs):
    calls = []
    theta_coeffs = reduction_mod._theta_coeffs

    def both(state, located, gaps, rays):
        found = {vec: state.fan.locate(vec) for vec in located}
        assert gaps == gaps_at(state, located)
        for vec, loc in located.items():
            assert_valid_location(state.fan, vec, loc)
            if loc.ray_indices == found[vec].ray_indices:
                assert loc == found[vec]
        handed = theta_coeffs(state, located, gaps, rays)
        assert handed == theta_coeffs(state, found, gaps_at(state, found), rays)
        calls.append((state, list(located)))
        return handed

    with mock.patch.object(reduction_mod, "_theta_coeffs", both):
        run_reduction(*inputs)
    assert calls
    # a zero-pullback valuation is still refused, after valid ones too
    state, sig = calls[-1]
    v = primitive_part(tuple(range(9, 9 + state.fan.n)))
    assert relative_pullback_coeff(state.phi, v) == 0
    for sigmas in ([v], list(sig) + [v]):
        with pytest.raises(PreconditionError) as exc:
            build_cut(state, sigmas)
        assert cli_mod._error_record(exc.value) == {
            "error": f"cut valuation {v} has zero pullback coefficient", "exit_code": 2,
        }


def test_chart_locations_off_the_tie_rule_give_the_same_theta():
    # a chart's valuation on a face it shares with a cone of smaller key is
    # located by Fan.locate in that other cone; its chart location must be
    # valid and give the same theta
    pair = LocalPair((F(1, 2), F(2, 3), F(1)))
    b = BDivisor(pair.coeffs, {(1, 1, 3): F(0), (1, 1, 0): F(0)})
    state, _ = build_cut(initial_state(LocalModel(pair), b), [(1, 1, 1)])
    ties = 0
    for key, cone in zip(state.fan.cones, state.fan.max_cones):
        chart = reduction_mod._chart_sigmas(state, state.fan.locate(
            tuple(map(sum, zip(*cone.gens)))))
        found = {vec: state.fan.locate(vec) for vec in chart}
        for vec, loc in chart.items():
            assert loc.ray_indices == key
            assert_valid_location(state.fan, vec, loc)
            ties += found[vec].ray_indices != key
        rays = insert_rays(state.fan, list(chart)).rays
        assert reduction_mod._theta_coeffs(state, chart, gaps_at(state, chart), rays) == (
            reduction_mod._theta_coeffs(state, found, gaps_at(state, found), rays))
    assert ties
    # a handed location on a ray is refused as build_cut refuses the ray
    ray = state.fan.rays[-1]
    with pytest.raises(PreconditionError, match="already a divisor"):
        build_cut(state, {ray: state.fan.locate(ray)})


# ---------------------------------------------------------------------------
# _cut_state takes min(theta, B) only at listed and unit rays; the trace must
# still be that minimum at every ray


def cut_state_and_theta(state, sigmas):
    located = {vec: state.fan.locate(vec) for vec in sigmas}
    new_fan = insert_rays(state.fan, list(sigmas))
    return reduction_mod._cut_state(state, located, gaps_at(state, located), new_fan)


def assert_trace_is_min_of_theta_and_b(state, new_state, theta):
    rays = new_state.fan.rays
    expected = tuple(map(min, theta, map(state.bdiv.value, rays)))
    assert len(new_state.phi.ray_coeffs) == len(expected)
    for ray, c, e in zip(rays, new_state.phi.ray_coeffs, expected):
        assert (ray, c) == (ray, e)


def test_cut_state_meets_theta_with_a_listed_deviation_on_a_new_ray():
    # (1, 2) cuts the orthant into a cone of det 2, so resolve adds (1, 1),
    # a new ray that is no sigma; B lists it below its theta
    pair = LocalPair((F(2, 3), F(5, 6)))
    b = BDivisor(pair.coeffs, {(1, 1): F(1, 5)})
    state = initial_state(LocalModel(pair), b)
    new_state, theta = cut_state_and_theta(state, [(1, 2)])
    i = new_state.fan.rays.index((1, 1))
    assert (1, 1) not in state.fan.rays and theta[i] == F(1, 2)
    assert new_state.phi.ray_coeffs[i] == F(1, 5)
    assert_trace_is_min_of_theta_and_b(state, new_state, theta)


def test_cut_state_meets_theta_with_a_unit_coefficient_below_it():
    # a hand-built state whose B is below the trace at e_1: the unit ray's
    # theta is its trace coefficient 2/3, and its new coefficient is B's 1/3
    fan = orthant_fan(2)
    phi = ModelDivisor(fan, (F(2, 3), F(5, 6)))
    b = BDivisor((F(1, 3), F(5, 6)))
    state = ReductionState(fan, phi, b)
    new_state, theta = cut_state_and_theta(state, [(1, 1)])
    assert theta[0] == F(2, 3) and new_state.phi.ray_coeffs[0] == F(1, 3)
    assert_trace_is_min_of_theta_and_b(state, new_state, theta)
