import json
import random
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest

from bdivkit.exact import PreconditionError
from bdivkit.fans import insert_rays, orthant_fan
from bdivkit.logpairs import (
    BDivisor,
    LocalPair,
    ModelDivisor,
    relative_pullback_coeff,
)
from bdivkit.reduction import (
    ReductionState,
    _cut_state,
    build_cut,
    positive_pullback_prefixes,
    run_reduction,
    verify_reduction,
    witnesses,
)
from test_exact import primitive_part
from test_fans import reference_star_subdivide


def coeff(md, ray):
    """The coefficient of a model divisor at one of its fan's rays."""
    return md.ray_coeffs[md.fan.ray_index[ray]]


def orthant_state(pair, bdiv):
    """The state on the undivided orthant, built by the validating constructors."""
    return ReductionState(ModelDivisor(orthant_fan(pair.n), pair.coeffs), bdiv)


def witness_weight(pair, bdiv) -> int:
    """The weight ``run_reduction`` reads from ``witnesses``."""
    return max((w.weight for w in witnesses(pair, bdiv)), default=-1)


def cut(pair, bdiv):
    """``build_cut`` at the weight ``run_reduction`` hands it."""
    return build_cut(pair, bdiv, witness_weight(pair, bdiv))


def cut_state_and_theta(state, sigmas):
    """A cut of an orthant state at hand-picked valuations, and its theta."""
    return _cut_state(state, sigmas, insert_rays(state.fan.n, sigmas))


def state_weight(state) -> int:
    """The weight of a state on any fan, by locating each listed deviation
    that is no ray: the most coefficient-one rays among those spanning it,
    over the deviations whose B-value is below their pullback; -1 if none."""
    weight = -1
    for vec, val in state.bdiv.deviations.items():
        if vec in state.fan.ray_index or val >= relative_pullback_coeff(state.phi, vec):
            continue
        loc = state.fan.locate(vec)
        ones = sum(1 for i, x in zip(loc.ray_indices, loc.nums)
                   if x > 0 and state.phi.ray_coeffs[i] == 1)
        weight = max(weight, ones)
    return weight


def make_model(*coeffs):
    return LocalPair(tuple(coeffs))


def test_prefixes_read_the_sub_one_coordinates_in_input_order():
    # (1, 1/2, 1, 0): coordinates 1 and 3 are below one, with prefix weights
    # 1 - 1/2 = 1/2 and 1 - 0 = 1, that is 1 and 2 over 2; so the prefixes
    # are the v with v_1 + 2 v_3 < 2, and fset counts s = 2, w = 2
    m = make_model(F(1), F(1, 2), F(1), F(0))
    assert positive_pullback_prefixes(m) == [(0, 0), (1, 0)]
    args = {"model": {"n": 4, "coeffs": ["1", "1/2", "1", "0"]}}
    assert cli_mod.run_command("fset", args) == {"s": 2, "w": 2, "prefixes": [[0, 0], [1, 0]]}


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
    # model.s == 1, so only the coefficient below one feeds the prefix box,
    # wherever it sits
    for model in make_model(F(1, 2), F(1)), make_model(F(1), F(1, 2)):
        assert positive_pullback_prefixes(model) == [(0,), (1,)]


def test_initial_witnesses_examples():
    # no deviations, trace values: no strict witness anywhere
    m = make_model(F(1, 2), F(1))
    assert witnesses(m, BDivisor(m.coeffs, {})) == []

    b = BDivisor(m.coeffs, {(1, 2): F(0)})
    [witness] = witnesses(m, b)
    assert (witness.vec, witness.stratum, witness.weight) == ((1, 2), (0, 1), 1)
    assert witness.pullback == F(1, 2)

    m2 = make_model(F(1, 2), F(2, 3))
    b2 = BDivisor(m2.coeffs, {(1, 1): F(0)})
    [witness2] = witnesses(m2, b2)
    assert witness2.weight == 0 and witness2.pullback == F(1, 6)
    assert witness_weight(m2, b2) == state_weight(orthant_state(m2, b2)) == 0


def test_fiber_valuations_examples():
    fiber_valuations = reduction_mod._fiber_valuations
    m = make_model(F(1, 2), F(1))
    # prefix (0) gives the unit (0, 1), a divisor already; prefix (1) lists
    # every deviation of its fibre below 1, in lexicographic order
    assert fiber_valuations(m, {(1, 2): F(0), (1, 1): F(1, 3)}) == [(1, 1), (1, 2)]
    # a fibre listing none gives its representative
    assert fiber_valuations(m, {}) == [(1, 1)]
    assert fiber_valuations(m, {(1, 3): F(1, 2)}) == [(1, 3)]
    # value 1 is the default, and prefix (2) has pullback 0
    assert fiber_valuations(m, {(1, 3): F(1), (2, 1): F(0)}) == [(1, 1)]
    # with two coefficient-one components the representative of prefix (0)
    # is no unit; model (1, 2/3, 1) keeps its sub-one coordinate in the middle
    m2 = make_model(F(1), F(2, 3), F(1))
    assert fiber_valuations(m2, {(1, 0, 2): F(1, 2), (2, 1, 1): F(0)}) == [
        (1, 0, 2), (2, 1, 1), (1, 2, 1)]


def test_build_cut_single_sigma():
    # one extraction at (1,1), the one prefix of sum above 1: the new ray
    # carries min(b1+b2-1, B value)
    pair = LocalPair((F(2, 3), F(2, 3)))
    b = BDivisor(pair.coeffs, {(1, 1): F(1, 6)})
    new_state, step = cut(pair, b)
    assert step.sigmas == ((1, 1),)
    assert coeff(new_state.phi, (1, 1)) == min(F(1, 3), F(1, 6))
    assert coeff(new_state.phi, (1, 0)) == F(2, 3)
    assert coeff(new_state.phi, (0, 1)) == F(2, 3)
    theta = dict(step.theta)
    assert theta[(1, 1)] == F(1, 6)


def test_build_cut_klt_branch_reaches_weight_minus_one():
    # extracting every positive-pullback valuation leaves no witness at all
    pair = LocalPair((F(1, 2), F(2, 3)))
    b = BDivisor(pair.coeffs, {})
    prefixes = positive_pullback_prefixes(pair)
    sigmas = [
        f
        for f in prefixes
        if any(f)
        and sum(1 for e in f if e) > 1  # units are already divisors
        and gcd(*f) == 1
    ]
    new_state, step = cut(pair, b)
    assert list(step.sigmas) == sigmas
    assert state_weight(new_state) == -1


def test_cut_keeps_trace_below_old_pullback():
    pair = LocalPair((F(1, 2), F(1)))
    b = BDivisor(pair.coeffs, {(1, 2): F(0)})
    state = orthant_state(pair, b)
    new_state, step = cut(pair, b)
    assert step.sigmas == ((1, 2),)
    # the step records the weight of the state it cut
    assert step.weight_before == state_weight(state) == 1
    for ray, c in zip(new_state.fan.rays, new_state.phi.ray_coeffs):
        assert c <= relative_pullback_coeff(state.phi, ray)


def test_worked_example_reduction():
    model = make_model(F(1, 2), F(1))
    b = BDivisor(model.coeffs, {(1, 2): F(0)})
    trace = run_reduction(model, b)
    assert trace.initial_weight == 1
    assert trace.terminated_weight == -1
    weights = [s.weight_before for s in trace.steps] + [trace.terminated_weight]
    assert all(a > b2 for a, b2 in zip(weights, weights[1:]))
    assert (1, 2) in trace.final_state.fan.ray_index
    assert coeff(trace.final_state.phi, (1, 2)) == 0
    assert verify_reduction(trace.final_state).ok


def test_reduction_trivial_case():
    model = make_model(F(1, 2), F(2, 3))
    trace = run_reduction(model, BDivisor(model.coeffs, {}))
    assert trace.steps == () and trace.terminated_weight == -1


def test_reduction_3d_example():
    model = make_model(F(2, 3), F(2, 3), F(1))
    b = BDivisor(model.coeffs, {(1, 1, 2): F(0)})
    trace = run_reduction(model, b)
    weights = [s.weight_before for s in trace.steps] + [trace.terminated_weight]
    assert weights[0] <= 1
    assert all(a > b2 for a, b2 in zip(weights, weights[1:]))
    assert trace.terminated_weight == -1
    assert verify_reduction(trace.final_state).ok


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
        state = orthant_state(pair, b)
        before = state_weight(state)
        # an arbitrary legal cut (not the driver's choice)
        candidates = [
            v
            for v in devs
            if relative_pullback_coeff(state.phi, v) > 0
        ]
        if not candidates:
            continue
        new_state, _ = cut_state_and_theta(state, candidates[:1])
        assert state_weight(new_state) <= before


def test_unlisted_valuations_never_witness():
    # B defaults to 1 and no pullback coefficient exceeds 1
    pair = LocalPair((F(1, 2), F(1)))
    b = BDivisor(pair.coeffs, {(1, 2): F(0)})
    state = orthant_state(pair, b)
    for v in product(range(5), repeat=2):
        if all(e == 0 for e in v):
            continue
        g = gcd(v[0], v[1])
        v = (v[0] // g, v[1] // g)
        if v in state.bdiv.deviations or v in state.fan.ray_index:
            continue
        assert relative_pullback_coeff(state.phi, v) <= 1 == state.bdiv.value(v)


def test_descent_chain_instrumented():
    # the inequality chain behind the weight drop, checked exactly
    pair = LocalPair((F(1, 2), F(1)))
    b = BDivisor(pair.coeffs, {(1, 2): F(0)})
    state = orthant_state(pair, b)
    sigma = (1, 2)
    y_fan = reference_star_subdivide(state.fan, sigma)
    gamma = ModelDivisor(
        y_fan,
        tuple(
            min(relative_pullback_coeff(state.phi, r), state.bdiv.value(r))
            for r in y_fan.rays
        ),
    )
    new_state, step = cut(pair, b)
    assert step.sigmas == (sigma,)
    for k in range(2, 7):
        nu = (1, k)  # same prefix, nu >= sigma
        l_phi2 = relative_pullback_coeff(new_state.phi, nu)
        l_gamma_nu = relative_pullback_coeff(gamma, nu)
        l_gamma_sigma = relative_pullback_coeff(gamma, sigma)
        assert l_phi2 <= l_gamma_nu <= l_gamma_sigma
        assert l_gamma_sigma <= state.bdiv.value(sigma) <= state.bdiv.value(nu)


def test_theta_matches_naive_computation():
    # the closed form on the orthant must agree with interpolating the full
    # divisor on every one-ray extraction Y_sigma, for sigma with B below and
    # at or above its pullback
    from bdivkit.logpairs import unit_index
    from bdivkit.reduction import _theta_coeffs

    def naive_theta(state, sigmas, rays):
        gammas = []
        for s in sigmas:
            y_fan = reference_star_subdivide(state.fan, s)
            gammas.append(
                ModelDivisor(
                    y_fan,
                    tuple(
                        min(relative_pullback_coeff(state.phi, r), state.bdiv.value(r))
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
    seen = dict.fromkeys(["n2", "n3", "below", "not_below"], 0)
    for _ in range(200):
        n = rng.choice([2, 3])
        coeffs = sorted(
            (rng.choice(pool) for _ in range(n)), key=lambda c: c == 1
        )
        pair = LocalPair(tuple(coeffs))
        phi = ModelDivisor(orthant_fan(n), pair.coeffs)
        # listed sigmas get a random B, unlisted ones keep the default 1
        sigmas = []
        devs = {}
        for _ in range(rng.randint(1, 3)):
            v = random_valuation(n, 4)
            if v in sigmas or relative_pullback_coeff(phi, v) == 0:
                continue
            if rng.random() < 0.6:
                devs[v] = rng.choice(values)
            sigmas.append(v)
        if not sigmas:
            continue
        state = orthant_state(pair, BDivisor(pair.coeffs, devs))
        new_fan = insert_rays(n, sigmas)
        fast = _theta_coeffs(state, sigmas, new_fan.rays)
        assert fast == naive_theta(state, sigmas, new_fan.rays)

        seen[f"n{n}"] += 1
        for s in sigmas:
            below = state.bdiv.value(s) < relative_pullback_coeff(state.phi, s)
            seen["below" if below else "not_below"] += 1
    assert all(count >= 10 for count in seen.values()), seen


def test_multi_cut_regression():
    # two deviations in the same fibre: both are extracted, and one cut ends
    # the descent
    pair = LocalPair((F(1), F(1)))
    b = BDivisor(pair.coeffs, {(3, 2): F(1, 3), (4, 1): F(1, 2)})
    trace = run_reduction(pair, b)
    assert [s.weight_before for s in trace.steps] == [2]
    assert trace.steps[0].sigmas == ((3, 2), (4, 1))
    assert trace.terminated_weight == -1
    assert (3, 2) in trace.final_state.fan.ray_index
    assert (4, 1) in trace.final_state.fan.ray_index
    assert verify_reduction(trace.final_state).ok


@pytest.mark.parametrize(
    "coeffs, devs",
    [
        ((F(1, 2), F(2, 3), F(1)), {(1, 1, 3): F(0), (1, 1, 0): F(0)}),
        ((F(2, 3), F(2, 3), F(1)), {(1, 1, 5): F(0), (1, 1, 1): F(0)}),
    ],
)
def test_one_cut_extracts_both_deviations_of_a_fibre(coeffs, devs):
    # both deviations lie in the fibre of prefix (1, 1); extracted alone,
    # the one of least tail would leave the other a witness of weight one,
    # across the wall x = y of its extraction
    pair = LocalPair(coeffs)
    trace = run_reduction(pair, BDivisor(pair.coeffs, devs))
    assert [s.weight_before for s in trace.steps] == [1]
    assert trace.terminated_weight == -1
    assert set(devs) <= set(trace.steps[0].sigmas)
    assert (1, 1, 2) not in trace.final_state.fan.ray_index
    assert verify_reduction(trace.final_state).ok


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
        trace = run_reduction(pair, b)
        weights = [s.weight_before for s in trace.steps] + [
            trace.terminated_weight
        ]
        assert all(a > b2 for a, b2 in zip(weights, weights[1:]))
        assert trace.terminated_weight == -1
        assert verify_reduction(trace.final_state).ok


def test_verify_reports_planted_violation():
    fan = reference_star_subdivide(orthant_fan(2), (1, 1))
    coeffs = []
    for r in fan.rays:
        coeffs.append({(1, 0): F(1, 2), (0, 1): F(1, 2), (1, 1): F(1)}[r])
    phi = ModelDivisor(fan, tuple(coeffs))
    b = BDivisor((F(1, 2), F(1, 2)), {(1, 1): F(0)})
    state = ReductionState(phi, b)
    report = verify_reduction(state)
    assert not report.ok
    assert report.violation[0] == (1, 1)
    assert report.violation[1] == 1 and report.violation[2] == 0


def test_verify_trivial_state():
    pair = LocalPair((F(1, 2), F(2, 3)))
    state = run_reduction(pair, BDivisor(pair.coeffs, {})).final_state
    assert state == orthant_state(pair, BDivisor(pair.coeffs, {}))
    report = verify_reduction(state)
    assert report.ok and report.violation is None


def test_initial_state_requires_matching_trace():
    # B's dimension is checked first, then its values on the unit vectors
    pair = LocalPair((F(1, 2), F(1)))
    for bdiv, message in [
        (BDivisor((F(1, 4), F(1)), {}),
         "the b-divisor trace must agree with the model coefficients"),
        (BDivisor((F(1, 4), F(1), F(1)), {}), "b-divisor dimension mismatch"),
    ]:
        for call in witnesses, run_reduction:
            with pytest.raises(PreconditionError) as exc:
                call(pair, bdiv)
            assert str(exc.value) == message


def test_state_json_roundtrip():
    model = make_model(F(1, 2), F(1))
    b = BDivisor(model.coeffs, {(1, 2): F(0)})
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


def reference_verify(state, box):
    """(ok, violation) of a lex scan of the rays, the deviations and every
    primitive vector with entries <= box."""
    candidates = set(state.fan.rays)
    candidates.update(state.bdiv.deviations)
    for vec in product(range(box + 1), repeat=state.fan.n):
        g = 0
        for e in vec:
            g = gcd(g, e)
        if g == 1:
            candidates.add(vec)
    for vec in sorted(candidates):
        pb = relative_pullback_coeff(state.phi, vec)
        bv = state.bdiv.value(vec)
        if pb > bv:
            return False, (vec, pb, bv)
    return True, None


def listed_up_to(state, report) -> int:
    """How many fan rays and listed deviations are <=_lex the violation (all
    of them when there is none)."""
    listed = set(state.fan.rays).union(state.bdiv.deviations)
    if report.violation is None:
        return len(listed)
    return sum(1 for vec in listed if vec <= report.violation[0])


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
    state = run_reduction(pair, BDivisor(pair.coeffs, devs)).final_state
    plant = draw(st.sampled_from(
        ["none", "ray", "deviation", "off_box", "lowered", "boundary"]))
    if plant == "ray":
        # raise the trace at a ray above its B-value
        i = draw(st.integers(0, len(state.fan.rays) - 1))
        bv = state.bdiv.value(state.fan.rays[i])
        if bv < 1:
            coeffs = list(state.phi.ray_coeffs)
            coeffs[i] = draw(st.sampled_from([c for c in (bv + (1 - bv) / 2, F(1))]))
            state = ReductionState(ModelDivisor(state.fan, tuple(coeffs)), state.bdiv)
    elif plant in ("deviation", "off_box"):
        # B = 0 violates wherever the pullback is positive
        top = 9 if plant == "deviation" else 30
        vecs = st.lists(st.integers(0, top), min_size=n, max_size=n).filter(any)
        for v in draw(st.lists(vecs, min_size=8, max_size=8)):
            v = primitive_part(tuple(v))
            if (
                sum(1 for e in v if e) > 1
                and v not in state.fan.ray_index
                and relative_pullback_coeff(state.phi, v) > 0
            ):
                bdiv = BDivisor(state.bdiv.pair_coeffs, {**state.bdiv.deviations, v: F(0)})
                state = ReductionState(state.phi, bdiv)
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
            state = ReductionState(state.phi, bdiv)
    return state


@settings(max_examples=200, deadline=None)
@given(reduced_states(), st.integers(1, 8))
def test_verify_matches_the_box_scan(state, box):
    report = verify_reduction(state)
    assert (report.ok, report.violation) == reference_verify(state, box)
    assert report.checked == listed_up_to(state, report)
    if report.violation:
        assert all(type(x) is F for x in report.violation[1:])


def test_verify_counts_past_a_violation_outside_the_box():
    fan = reference_star_subdivide(orthant_fan(2), (1, 1))
    phi = ModelDivisor(fan, (F(1, 2), F(1, 2), F(1)))
    b = BDivisor((F(1, 2), F(1, 2)), {(9, 10): F(0), (3, 4): F(0), (3, 1): F(0)})
    state = ReductionState(phi, b)
    report = verify_reduction(state)
    assert (report.ok, report.violation) == reference_verify(state, 2)
    assert report.violation == ((3, 4), F(1, 2), F(0))
    # the rays (0, 1), (1, 0) and (1, 1), then the deviations (3, 1) and (3, 4)
    assert report.checked == 5 == listed_up_to(state, report)


def test_verify_rejects_a_fan_that_is_no_subdivision():
    fan = Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (0, 2)))
    phi = ModelDivisor(fan, (F(1, 2), F(1, 2), F(1)))
    state = ReductionState(phi, BDivisor((F(1, 2), F(1, 2)), {}))
    with pytest.raises(InvariantViolation):
        verify_reduction(state)


# ---------------------------------------------------------------------------
# prefixes on integer weights, against the box scan over Fractions

from math import floor, prod


def reference_prefixes(pair):
    """The box scan: every v with v_i <= floor(1/(1-c_i)), summed in Fractions."""
    cs = [c for c in pair.coeffs if c < 1]
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
    model = make_model(*data.draw(st.permutations([*cs, *[F(1)] * w])))
    expected = reference_prefixes(model)
    assert positive_pullback_prefixes(model) == expected
    # with a coefficient one, a model with no deviations extracts the
    # representative of each of these prefixes that is no unit vector
    if w:
        reps = []
        for f in expected:
            at = dict(zip((i for i, c in enumerate(model.coeffs) if c < 1), f))
            rep = tuple(at.get(i, 1) for i in range(model.n))
            reps += [rep] if unit_index(rep) is None else []
        assert reduction_mod._fiber_valuations(model, {}) == reps


# ---------------------------------------------------------------------------
# what build_cut builds unchecked, against the validating constructors

from unittest import mock

import bdivkit.cli as cli_mod
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
        coeffs[draw(st.integers(0, n - 1))] = F(1)
    pair = LocalPair(tuple(coeffs))
    vec = st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(
        lambda v: sum(1 for e in v if e) > 1
    ).map(lambda v: primitive_part(tuple(v)))
    devs = {v: draw(st.sampled_from([F(0), F(1, 7)])) for v in draw(st.lists(vec, max_size=3))}
    witness = vec.filter(lambda v: relative_pullback_coeff(ModelDivisor(
        orthant_fan(n), pair.coeffs), v) > 0)
    devs[draw(witness)] = F(0)
    return pair, BDivisor(pair.coeffs, devs)


@settings(max_examples=150, deadline=None)
@given(reduction_inputs())
def test_cut_states_equal_their_validated_rebuilds(inputs):
    states = []
    build_cut_checked = reduction_mod.build_cut

    def recording(pair, bdiv, weight):
        new_state, step = build_cut_checked(pair, bdiv, weight)
        states.append(new_state)
        # at a unit ray theta is its old trace coefficient, the pair's (the
        # argument of _cut_state)
        assert step.theta[:pair.n] == tuple(zip(orthant_fan(pair.n).rays, pair.coeffs))
        return new_state, step

    with mock.patch.object(reduction_mod, "build_cut", recording):
        run_reduction(*inputs)
    assert states
    for state in states:
        fan = state.fan
        assert Fan(fan.n, fan.rays, fan.cones) == fan
        for key, cone in zip(fan.cones, fan.max_cones):
            # a cone's generators come in the order of its key
            assert cone.gens == tuple(fan.rays[i] for i in key)
            fresh = Cone(cone.gens)
            assert (cone.det, cone._inward_adjugate) == (fresh.det, fresh._inward_adjugate)
        assert ModelDivisor(fan, state.phi.ray_coeffs) == state.phi
        assert BDivisor(state.bdiv.pair_coeffs, state.bdiv.deviations) == state.bdiv
        for ray in fan.rays:
            loc = fan.locate(ray)
            assert loc.nums == loc.cone.coords(ray)


# ---------------------------------------------------------------------------
# _cut_state takes min(theta, B) only at listed rays; the trace must still be
# that minimum at every ray


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
    state = orthant_state(pair, b)
    new_state, theta = cut_state_and_theta(state, [(1, 2)])
    i = new_state.fan.rays.index((1, 1))
    assert (1, 1) not in state.fan.rays and theta[i] == F(1, 2)
    assert new_state.phi.ray_coeffs[i] == F(1, 5)
    assert_trace_is_min_of_theta_and_b(state, new_state, theta)


def test_cut_of_a_state_whose_trace_is_above_b_at_a_unit_ray_is_a_breach():
    # a hand-built state whose B is below the trace at e_1: the unit ray's
    # theta is its trace coefficient 2/3, which a cut keeps, so the new
    # trace leaves B's 1/3 there and the cut is refused
    fan = orthant_fan(2)
    phi = ModelDivisor(fan, (F(2, 3), F(5, 6)))
    b = BDivisor((F(1, 3), F(5, 6)))
    state = ReductionState(phi, b)
    with pytest.raises(InvariantViolation, match="inconsistent trace"):
        cut_state_and_theta(state, [(1, 1)])


# ---------------------------------------------------------------------------
def test_a_reduction_finds_its_witnesses_once(monkeypatch):
    # run_reduction reads the weight once and hands it to the cut
    calls = []
    found = reduction_mod.witnesses
    monkeypatch.setattr(reduction_mod, "witnesses",
                        lambda pair, bdiv: calls.append(1) or found(pair, bdiv))
    pair = LocalPair((F(1, 2), F(1)))
    trace = run_reduction(pair, BDivisor(pair.coeffs, {(1, 2): F(0)}))
    assert len(calls) == 1
    assert trace.initial_weight == trace.steps[0].weight_before == 1


# invariant breaches no command reaches, with the fault planted


def test_cut_whose_trace_leaves_b_at_a_ray_is_a_breach(monkeypatch):
    # theta planted at 0 puts the unit rays below B's pair values there
    monkeypatch.setattr(reduction_mod, "_theta_coeffs",
                        lambda state, sigmas, rays: tuple(F(0) for _ in rays))
    pair = LocalPair((F(1, 2), F(1)))
    with pytest.raises(InvariantViolation, match="inconsistent trace"):
        cut(pair, BDivisor(pair.coeffs, {(1, 2): F(0)}))


def test_cut_that_leaves_a_witness_is_a_breach(monkeypatch, capsys):
    # the cut valuations planted to drop (4, 1): the cut at (3, 2) alone
    # resolves through (2, 1), where (4, 1) keeps pullback 2/3 above its
    # B-value 1/2, which the verifier inside run_reduction refutes
    cut_valuations = reduction_mod._cut_valuations
    monkeypatch.setattr(reduction_mod, "_cut_valuations", lambda model, bdiv: [
        v for v in cut_valuations(model, bdiv) if v != (4, 1)])
    argv = ["reduce", "--model", '{"n":2,"coeffs":["1","1"]}', "--B",
            '{"deviations":[{"v":[3,2],"value":"1/3"},{"v":[4,1],"value":"1/2"}]}']
    assert cli_mod.main(argv) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "reduction output violates the bound at (4, 1)", "exit_code": 3}


def test_witness_whose_chart_gives_no_cut_valuation_is_a_breach(monkeypatch):
    monkeypatch.setattr(reduction_mod, "_cut_valuations", lambda model, bdiv: [])
    pair = LocalPair((F(1, 2), F(1)))
    with pytest.raises(InvariantViolation, match="no cut valuation"):
        run_reduction(pair, BDivisor(pair.coeffs, {(1, 2): F(0)}))


def test_weight_takes_the_first_stratum_of_greatest_weight(capsys):
    # (0, 1, 1) and (1, 0, 1) witness at weight 1, on the strata {1, 2} and
    # {0, 2}; (1, 1, 0) at weight 0 on {0, 1}.  Weight comes first, then
    # subset order, not the lexicographic order of the vectors
    argv = ["weight", "--model", '{"n":3,"coeffs":["1/2","2/3","1"]}', "--B",
            '{"deviations":[{"v":[0,1,1],"value":"0"},{"v":[1,0,1],"value":"0"},'
            '{"v":[1,1,0],"value":"0"}]}']
    for stratum, vec in ([], [1, 0, 1]), (["--stratum", "[2,3]"], [0, 1, 1]):
        assert cli_mod.main(argv + stratum) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["weight"], out["witness"]["v"]) == (1, vec)


def test_weight_refuses_a_pair_that_differs_from_the_model(capsys):
    # a pair value below the model coefficient would witness on the divisor
    # itself, outside the descent, whose trace is the model: weight refuses
    # such a B as reduce does
    for command in ("weight", "reduce"):
        assert cli_mod.main([command, "--model", '{"n":2,"coeffs":["1/2","1"]}', "--B",
                             '{"pair":["1/4","1"],"deviations":[]}']) == 2
        assert json.loads(capsys.readouterr().err)["error"] == (
            "the b-divisor trace must agree with the model coefficients")


@pytest.mark.parametrize("model, bdiv", [
    pytest.param('{"n":3,"coeffs":["3/4","1","1"]}',
                 '{"deviations":[{"v":[1,0,1],"value":"1/7"},{"v":[4,2,1],"value":"1/3"},'
                 '{"v":[1,6,0],"value":"0"}]}', id="one sub-one component"),
    # the threefold census holds (c, 1, 1) with c < 1 only
    pytest.param('{"n":3,"coeffs":["1","1","1"]}',
                 '{"deviations":[{"v":[0,1,1],"value":"0"},{"v":[1,0,1],"value":"0"}]}',
                 id="all three coefficient one"),
])
def test_reduce_with_two_unit_coefficient_components_exits_0(model, bdiv):
    assert cli_mod.main(["reduce", "--model", model, "--B", bdiv]) == 0


def test_a_klt_surface_cut_builds_no_cone_after_its_cut(monkeypatch):
    # every arc of a klt surface cut has determinant 1: resolution splits
    # none, and the verifier's walk reads cross products of the fan's rays
    seen = []
    real_insert_rays = reduction_mod.insert_rays

    def insert_rays(n, vecs):
        seen.append(real_insert_rays(n, vecs))
        return seen[-1]

    monkeypatch.setattr(reduction_mod, "insert_rays", insert_rays)
    pair = LocalPair((F(4, 5), F(5, 6)))
    trace = run_reduction(pair, BDivisor(pair.coeffs, {(2, 3): F(0)}))
    final = trace.final_state.fan
    assert len(trace.steps) == 1 and len(final.rays) > 10
    assert verify_reduction(trace.final_state).ok
    trace.to_json()
    assert any(fan is final for fan in seen)
    for fan in seen:
        assert "max_cones" not in fan.__dict__


# ---------------------------------------------------------------------------
# the commands answer in the input's coordinates, however the components are
# numbered

import contextlib
import io


def _answer(command, coeffs, deviations) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_mod.main([
            command, "--model", json.dumps({"n": len(coeffs), "coeffs": list(map(str, coeffs))}),
            "--B", json.dumps({"deviations": [{"v": list(v), "value": str(x)}
                                              for v, x in deviations]})]) == 0
    return json.loads(out.getvalue())


def test_weight_prints_its_witness_in_the_input_coordinates():
    [witness] = witnesses(make_model(F(1), F(1, 2)), BDivisor(
        (F(1), F(1, 2)), {(2, 1): F(0)}))
    out = _answer("weight", ["1", "1/2"], [((2, 1), 0)])
    assert out["witness"] == witness.to_json()
    assert (out["witness"]["v"], out["witness"]["stratum"]) == ([2, 1], [0, 1])
    assert "permutation" not in out


@st.composite
def one_coefficient_one_anywhere(draw):
    """(coeffs, v, value) as the n = 3 reduce_cut ops draw them: two
    coefficients (r - 1) / r, r in 4..6, and a 1 at a random position; B is
    half the pullback at one primitive non-unit v, positive at the 1."""
    coeffs = [F(r - 1, r) for r in draw(st.lists(st.integers(4, 6), min_size=2, max_size=2))]
    one = draw(st.integers(0, 2))
    coeffs.insert(one, F(1))
    entries = [st.integers(0, 3)] * 3
    entries[one] = st.integers(1, 2)
    v = draw(st.tuples(*entries).filter(lambda v: gcd(*v) == 1 and v.count(0) < 2))
    pb = relative_pullback_coeff(ModelDivisor(orthant_fan(3), tuple(coeffs)), v)
    assume(pb > 0)
    return coeffs, v, pb / 2


def _in_input_coordinates(out, back) -> tuple:
    """A reduce answer's final fan (cones as sets of vectors), trace, B and
    per-step sigma and ray sets, each vector read through back."""
    final = out["final"]
    rays = [back(r) for r in final["fan"]["rays"]]
    return (
        {frozenset(rays[i] for i in cone) for cone in final["fan"]["cones"]},
        dict(zip(rays, final["phi"])),
        back(final["B"]["pair"]),
        {back(d["v"]): d["value"] for d in final["B"]["deviations"]},
        [(step["weight_before"], {back(s) for s in step["sigmas"]},
          {back(r) for r in step["rays_added"]}) for step in out["steps"]],
        (out["initial_weight"], out["terminated_weight"], out["model"]),
    )


@settings(max_examples=40, deadline=None)
@given(one_coefficient_one_anywhere())
def test_reduce_and_weight_answer_as_on_the_sorted_model(inputs):
    # the run on the model with its 1 last, mapped back, is the run on the
    # input: coordinate j of the sorted model is coordinate order[j]
    coeffs, v, value = inputs
    order = sorted(range(3), key=lambda i: (coeffs[i] == 1, i))

    def back(vec):
        return tuple(vec[order.index(i)] for i in range(3))

    sorted_inputs = ([coeffs[i] for i in order], [((tuple(v[i] for i in order)), value)])
    answers = [_answer("reduce", coeffs, [(v, value)]), _answer("reduce", *sorted_inputs)]
    answers[1]["model"]["coeffs"] = list(back(answers[1]["model"]["coeffs"]))
    assert _in_input_coordinates(answers[0], tuple) == _in_input_coordinates(answers[1], back)

    out, sorted_out = _answer("weight", coeffs, [(v, value)]), _answer("weight", *sorted_inputs)
    assert out["weight"] == sorted_out["weight"] >= 0
    # B lists only v, so v is the witness, on the cone its support spans
    assert out["witness"]["v"] == list(v)
    assert out["witness"]["stratum"] == sorted(order[j] for j in sorted_out["witness"]["stratum"])


# ---------------------------------------------------------------------------
# the witness search on integers, against the located pullback on the orthant


@st.composite
def pairs_and_deviations(draw):
    """A pair of dimension 1 to 4 and up to four deviations of B."""
    n = draw(st.integers(1, 4))
    pool = [F(0), F(1, 2), F(2, 3), F(5, 6), F(6, 7), F(1)]
    pair = LocalPair(tuple(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))))
    vec = st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any).map(
        lambda v: primitive_part(tuple(v))).filter(lambda v: unit_index(v) is None)
    devs = draw(st.dictionaries(vec, st.sampled_from([F(0), F(1, 7), F(1, 3), F(1)]),
                                max_size=4))
    return pair, BDivisor(pair.coeffs, devs)


@settings(max_examples=200, deadline=None)
@given(pairs_and_deviations())
def test_witnesses_equal_the_located_pullback_on_the_orthant(inputs):
    pair, bdiv = inputs
    md = ModelDivisor(orthant_fan(pair.n), pair.coeffs)
    expected = []
    for vec, val in sorted(bdiv.deviations.items()):
        pb = relative_pullback_coeff(md, vec)
        if val < pb:
            loc = md.fan.locate(vec)
            stratum = tuple(i for i, x in zip(loc.ray_indices, loc.nums) if x > 0)
            ones = sum(1 for i in stratum if md.ray_coeffs[i] == 1)
            expected.append((vec, val, pb, stratum, ones))
    found = witnesses(pair, bdiv)
    assert [(w.vec, w.b_value, w.pullback, w.stratum, w.weight) for w in found] == expected
    assert all(type(w.pullback) is F for w in found)
    assert witness_weight(pair, bdiv) == state_weight(orthant_state(pair, bdiv))


def test_weight_locates_nothing(capsys):
    # the witnesses are read on the orthant, where a vector is its own
    # coordinates, so weight locates no vector
    def locate(self, v):
        raise AssertionError(f"located {v}")

    argv = ["weight", "--model", '{"n":3,"coeffs":["1/2","2/3","1"]}', "--B",
            '{"deviations":[{"v":[0,1,1],"value":"0"},{"v":[1,0,1],"value":"0"},'
            '{"v":[1,1,0],"value":"0"},{"v":[2,3,1],"value":"0"}]}', "--verify"]
    with mock.patch.object(Fan, "locate", locate):
        assert cli_mod.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["weight"], out["witness"]["v"], out["verified"]) == (1, [1, 0, 1], True)
