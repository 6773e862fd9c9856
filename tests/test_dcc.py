from fractions import Fraction as F
from itertools import islice
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from bdivkit import dcc
from bdivkit.dcc import (
    Chain,
    FiniteSet,
    StandardSet,
    SumClosure,
    UnionSet,
    dcc_verdict,
    desc_from_json,
    exceptional_closure,
    find_decreasing_chain,
    materialize,
    standard_coeff,
)
from bdivkit.exact import PreconditionError, format_rat

small_fracs = st.fractions(min_value=F(0), max_value=F(1), max_denominator=10)


def truncated_standard(r_max):
    return FiniteSet(tuple(standard_coeff(r) for r in range(1, r_max + 1)))


def test_standard_coeff_examples():
    assert standard_coeff(1) == 0
    assert standard_coeff(2) == F(1, 2)
    assert standard_coeff(7) == F(6, 7)
    with pytest.raises(PreconditionError):
        standard_coeff(0)


def test_exceptional_closure_examples():
    assert exceptional_closure([F(1, 2)], 10) == [F(0), F(1, 2)]
    assert exceptional_closure([standard_coeff(5)], 5) == [
        F(k, 5) for k in range(5)
    ]
    assert F(1, 6) in exceptional_closure([F(1, 2), F(2, 3)], 6)


def test_exceptional_closure_density():
    # every k/q appears, nothing else does
    for q in range(2, 21):
        got = exceptional_closure([standard_coeff(q)], q)
        assert got == [F(k, q) for k in range(q)]


def test_exceptional_closure_keeps_a_listed_one():
    with_one = exceptional_closure([F(1, 2), F(1)], 10)
    assert F(1) in with_one and F(1, 2) in with_one and F(0) in with_one


@given(
    st.lists(small_fracs, min_size=1, max_size=4),
    st.lists(small_fracs, min_size=0, max_size=2),
    st.integers(min_value=2, max_value=12),
)
@settings(max_examples=40, deadline=None)
def test_closure_monotone(base, extra, bound):
    small = set(exceptional_closure(base, bound))
    bigger_base = set(exceptional_closure(base + extra, bound))
    bigger_bound = set(exceptional_closure(base, bound + 5))
    assert small <= bigger_base
    assert small <= bigger_bound


def test_closure_is_closed():
    vals = set(exceptional_closure([F(1, 2), F(2, 3), F(6, 7)], 42))
    for a in vals:
        for b in vals:
            e = a + b - 1
            if e >= 0 and e.denominator <= 42:
                assert e in vals


def test_find_chain_finite():
    fin = FiniteSet((F(0), F(1, 2), F(6, 7)))
    got = find_decreasing_chain(fin, 2, 10)
    assert got is not None and list(got.elements) == [F(6, 7), F(1, 2)]
    assert find_decreasing_chain(fin, 3, 10) is None  # two positive
    # members below the bound only: 6/7 is past the bound 6
    got = find_decreasing_chain(fin, 1, 6)
    assert got is not None and list(got.elements) == [F(1, 2)]
    assert find_decreasing_chain(fin, 2, 6) is None


def test_find_chain_standard_structural():
    # (r-1)/r for r = d, d - 1, ..., read off the formula at any bound
    assert find_decreasing_chain(StandardSet(), 2, 100).elements == (F(99, 100), F(98, 99))
    assert find_decreasing_chain(StandardSet(), 5, 10 ** 12).elements == tuple(
        standard_coeff(r) for r in range(10 ** 12, 10 ** 12 - 5, -1))
    # 99 positive members below the bound 100, and below the bound 1 only 0
    assert find_decreasing_chain(StandardSet(), 99, 100).elements[-1] == F(1, 2)
    assert find_decreasing_chain(StandardSet(), 100, 100) is None
    assert find_decreasing_chain(StandardSet(), 1, 1) is None


def test_find_chain_closure():
    # the sums of two coefficients of the base lie below both, so the five
    # largest members of the closure are the five largest of its base
    desc = SumClosure(truncated_standard(43), denom_bound=2000)
    chain = find_decreasing_chain(desc, 5, 2000)
    assert chain.elements == tuple(standard_coeff(r) for r in range(43, 38, -1))
    # under the bound 10 the closure is the Farey fractions of order 10
    chain = find_decreasing_chain(desc, 4, 10)
    assert chain.elements == (F(9, 10), F(8, 9), F(7, 8), F(6, 7))
    assert find_decreasing_chain(desc, 31, 10).elements[-1] == F(1, 10)
    assert find_decreasing_chain(desc, 32, 10) is None


def test_chain_lengths_past_the_size_cap_are_refused():
    cap = dcc.CLOSURE_SIZE_CAP
    assert len(find_decreasing_chain(StandardSet(), cap, 10 ** 9).elements) == cap
    assert len(dcc_verdict(SumClosure(StandardSet(), 2), cap).witness.elements) == cap
    with pytest.raises(PreconditionError, match=f"chain length {cap + 1} is more than the cap"):
        find_decreasing_chain(StandardSet(), cap + 1, 10 ** 9)
    with pytest.raises(PreconditionError, match=f"threshold {cap + 1} is more than the cap"):
        dcc_verdict(StandardSet(), cap + 1)


def test_chain_type_validates():
    with pytest.raises(PreconditionError):
        Chain((F(1, 2), F(1, 2)))
    c = Chain((F(2, 3), F(1, 2)))
    assert c.elements == (F(2, 3), F(1, 2))


def test_verdicts_structural():
    assert dcc_verdict(FiniteSet((F(0), F(1, 2), F(6, 7)))).verdict == "DCC"
    assert dcc_verdict(StandardSet()).verdict == "DCC"
    union = UnionSet((StandardSet(), FiniteSet((F(1, 3),))))
    assert dcc_verdict(union).verdict == "DCC"


def _rederived(m):
    """1/m as (m-1)/m summed with itself m-2 times, each sum kept only when
    non-negative."""
    x = top = F(m - 1, m)
    for _ in range(m - 2):
        x = x + top - 1
        assert x >= 0
    return x


def test_verdict_closure_not_dcc():
    # the closure of the standard set holds 1/m = (m-1)/m + ... + (m-1)/m - (m-2)
    for desc in (SumClosure(StandardSet(), 1), SumClosure(StandardSet(), 2000),
                 SumClosure(UnionSet((FiniteSet((F(1, 3),)), StandardSet())), 7),
                 SumClosure(SumClosure(StandardSet(), 3), 5)):
        verdict = dcc_verdict(desc)
        assert verdict.verdict == "NOT_DCC" and verdict.witness.limit == 0
        assert verdict.witness.elements == tuple(_rederived(m) for m in range(2, 7))
    assert len(dcc_verdict(SumClosure(StandardSet(), 5), 40).witness.elements) == 40


def test_verdict_closure_of_a_bounded_base_is_dcc():
    # the base's denominators divide L, so the closure lies in (1/L)Z in [0, 1]
    truncated = SumClosure(truncated_standard(43), denom_bound=2000)
    for desc in (truncated, SumClosure(FiniteSet((F(1, 2),)), denom_bound=10),
                 SumClosure(truncated, 5), SumClosure(UnionSet((truncated, FiniteSet((F(1),)))), 9)):
        assert dcc_verdict(desc, 40) == dcc.DccVerdict(
            "DCC", reason="the base's denominators divide one L, so the closure lies "
            "in the finite set (1/L)Z in [0, 1]")
    # L = lcm(1..7) = 420 for the base 0, 1/2, ..., 6/7: 421 multiples of 1/420 in [0, 1]
    members = materialize(SumClosure(truncated_standard(7), 10 ** 6), 10 ** 6)
    assert all(420 % m.denominator == 0 for m in members) and len(members) <= 421


# 6/7 steps down through 5/7, 4/7, ... one value a round, and 1/2 + 2/3 - 1 =
# 1/6 lies past the bound 3: the closures that once ended a bounded search
_SEVENTHS = SumClosure(FiniteSet((F(6, 7),)), denom_bound=7)


@pytest.mark.parametrize("desc, members", [
    pytest.param(_SEVENTHS, [F(k, 7) for k in range(7)], id="rounds"),
    pytest.param(SumClosure(FiniteSet((F(1, 2), F(2, 3))), denom_bound=3),
                 [F(0), F(1, 3), F(1, 2), F(2, 3)], id="denom_bound"),
    pytest.param(SumClosure(FiniteSet((F(1, 2),)), denom_bound=10), [F(0), F(1, 2)],
                 id="enumerated in full"),
    pytest.param(SumClosure(_SEVENTHS, denom_bound=7), [F(k, 7) for k in range(7)],
                 id="rounds in the base"),
])
def test_verdicts_once_unknown_are_dcc(desc, members):
    assert dcc_verdict(desc).verdict == "DCC"
    assert materialize(desc, 7) == members


def test_verdict_union_propagates_not_dcc():
    standard_closure = SumClosure(StandardSet(), 12)
    desc = UnionSet((FiniteSet((F(1, 3),)), standard_closure))
    assert dcc_verdict(desc, 3) == dcc_verdict(standard_closure, 3)
    assert dcc_verdict(desc, 3).verdict == "NOT_DCC"
    # a union of DCC sets is DCC: the standard set and a finite closure
    desc = UnionSet((StandardSet(), SumClosure(truncated_standard(43), denom_bound=2000)))
    assert dcc_verdict(desc) == dcc.DccVerdict("DCC", reason="finite union of DCC sets")


def test_verdict_soundness_against_chain_search():
    # a NOT_DCC witness lies in the set, cut at its largest denominator, and a
    # DCC closure lists only multiples of 1/L at every bound
    descs = [
        FiniteSet((F(0), F(1, 2), F(6, 7))),
        StandardSet(),
        UnionSet((StandardSet(), FiniteSet((F(1, 3),)))),
        SumClosure(truncated_standard(20), denom_bound=500),
        SumClosure(truncated_standard(5), denom_bound=500),
        UnionSet((FiniteSet((F(1, 2),)), SumClosure(StandardSet(), 500))),
    ]
    for d in descs:
        v = dcc_verdict(d, 6)
        if v.verdict == "NOT_DCC":
            bound = max(e.denominator for e in v.witness.elements)
            assert dcc.members_among(d, v.witness.elements, bound) == set(v.witness.elements)
        elif isinstance(d, SumClosure):
            big_l = lcm(*(x.denominator for x in d.base.values))
            listed = islice(dcc._descending(d, 500), 200)
            assert all(big_l % e.denominator == 0 for e in listed)


def desc_to_json(desc):
    """The JSON that ``desc_from_json`` reads back as desc."""
    if isinstance(desc, FiniteSet):
        return {"kind": "finite", "values": [format_rat(v) for v in desc.values]}
    if isinstance(desc, StandardSet):
        return {"kind": "standard"}
    if isinstance(desc, UnionSet):
        return {"kind": "union", "members": [desc_to_json(m) for m in desc.members]}
    return {"kind": "closure", "base": desc_to_json(desc.base), "denom_bound": desc.denom_bound}


def test_desc_json_roundtrip():
    desc = UnionSet(
        (
            StandardSet(),
            SumClosure(FiniteSet((F(1, 2), F(2, 3))), denom_bound=50),
        )
    )
    assert desc_from_json(desc_to_json(desc)) == desc


# ---------------------------------------------------------------------------
# the walk and the Farey form against the Fraction code of the parent closure


def _reference_exceptional_closure(base, denom_bound):
    start = {v for v in base if v.denominator <= denom_bound}
    out = set(start)
    frontier = set(start)
    while frontier:
        fresh = set()
        for a in frontier:
            for b in out:
                e = a + b - 1
                if e >= 0 and e.denominator <= denom_bound and e not in out:
                    fresh.add(e)
        out |= fresh
        frontier = fresh
    return sorted(out)


def _reference_materialize(desc, denom_bound):
    if isinstance(desc, FiniteSet):
        return [v for v in desc.values if v.denominator <= denom_bound]
    if isinstance(desc, StandardSet):
        return [F(r - 1, r) for r in range(1, denom_bound + 1)]
    if isinstance(desc, UnionSet):
        out = set()
        for m in desc.members:
            out.update(_reference_materialize(m, denom_bound))
        return sorted(out)
    bound = min(denom_bound, desc.denom_bound)
    return _reference_exceptional_closure(_reference_materialize(desc.base, bound), bound)


_unit_fracs = st.one_of(
    st.sampled_from([F(0), F(1)]),
    st.fractions(min_value=F(0), max_value=F(1), max_denominator=16),
)
_bounds = st.integers(min_value=1, max_value=80)
# the closures' own bounds: small enough that the Fraction reference closes
# the standard set quickly
_closure_bounds = st.integers(min_value=1, max_value=24)
_plain_sets = st.one_of(
    st.lists(_unit_fracs, max_size=6).map(lambda vs: FiniteSet(tuple(vs))),
    st.integers(min_value=1, max_value=12).map(truncated_standard),
    st.just(StandardSet()),
)


def _closure(base, bound, with_one):
    """The closure of base, with 1 listed in the base when with_one."""
    return SumClosure(UnionSet((base, FiniteSet((F(1),)))) if with_one else base, bound)


_sets = st.recursive(
    _plain_sets,
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda ms: UnionSet(tuple(ms))),
        st.builds(_closure, inner, _closure_bounds, st.booleans()),
    ),
    max_leaves=4,
)
_closures = st.builds(_closure, _sets, _closure_bounds, st.booleans())
# a closure over a closure, whose inner bound may be the smaller
_nested_closures = st.builds(_closure, _closures, _closure_bounds, st.booleans())
_lengths = st.integers(min_value=1, max_value=6)


@given(st.lists(_unit_fracs, max_size=6), _bounds, st.booleans())
@settings(max_examples=150, deadline=None)
def test_exceptional_closure_matches_the_fraction_reference(base, bound, with_one):
    base = base + [F(1)] * with_one
    assert exceptional_closure(base, bound) == _reference_exceptional_closure(base, bound)


@given(st.one_of(_sets, _closures, _nested_closures), _bounds, _lengths)
@example(SumClosure(SumClosure(StandardSet(), 12), 24), 30, 3)
@example(UnionSet((FiniteSet((F(1, 2),)), FiniteSet((F(1, 3),)))), 10, 2)
@settings(max_examples=200, deadline=None)
def test_closure_search_matches_the_fraction_reference(desc, bound, length):
    # the members, the chain of the length largest positive ones, and the
    # membership rule, each against the Fraction reference
    reference = _reference_materialize(desc, bound)
    assert materialize(desc, bound) == reference
    positives = [x for x in reversed(reference) if x > 0]
    chain = find_decreasing_chain(desc, length, bound)
    if len(positives) < length:
        assert chain is None
    else:
        assert chain.elements == tuple(positives[:length])
    candidates = {F(k, q) for q in range(1, bound + 2) for k in range(-1, q + 2)}
    assert dcc.members_among(desc, candidates, bound) == candidates.intersection(reference)


def _facts_verdict(desc):
    """NOT_DCC exactly for a closure whose base holds the standard set
    anywhere, and for a union with such a member (facts 3 and 4)."""
    def holds_standard(d):
        return isinstance(d, StandardSet) or (
            isinstance(d, UnionSet) and any(map(holds_standard, d.members))) or (
            isinstance(d, SumClosure) and holds_standard(d.base))

    def not_dcc(d):
        return (isinstance(d, SumClosure) and holds_standard(d.base)) or (
            isinstance(d, UnionSet) and any(map(not_dcc, d.members)))
    return "NOT_DCC" if not_dcc(desc) else "DCC"


@given(st.one_of(_sets, _closures, _nested_closures), _lengths)
@settings(max_examples=200, deadline=None)
def test_verdicts_follow_the_facts(desc, length):
    verdict = dcc_verdict(desc, length)
    assert verdict.verdict == _facts_verdict(desc)
    if verdict.verdict == "NOT_DCC":
        assert verdict.witness.elements == tuple(_rederived(m) for m in range(2, length + 2))
    else:
        assert verdict.witness is None


def test_farey_stream_and_membership_match_brute_force_up_to_400():
    # brute force: the reduced k/q in [0, 1) with q <= d, grown one q at a
    # time.  At every d the Farey pairs descend strictly and lie in it, and
    # are as many, so they are the whole of it; the membership rule of the
    # closure of the standard set cut at d agrees with it
    farey = set()
    for d in range(1, 401):
        farey.update(F(k, d) for k in range(d))
        count, last = 0, (1, 1)
        for p, q in dcc._farey(d):
            assert 0 <= p < q <= d and p * last[1] < last[0] * q
            count, last = count + 1, (p, q)
        assert count == len(farey)
        desc = SumClosure(StandardSet(), d)
        candidates = {F(k, q) for q in (d, d + 1) for k in range(-1, q + 2)}
        assert dcc.members_among(desc, candidates, d) == candidates & farey
        if d <= 60 or d == 400:
            assert list(dcc._descending(desc, d)) == sorted(farey, reverse=True)
    # 1 leads the stream exactly when the base lists it
    with_one = SumClosure(UnionSet((StandardSet(), FiniteSet((F(1),)))), 400)
    assert list(dcc._descending(with_one, 400)) == [F(1)] + sorted(farey, reverse=True)


# ---------------------------------------------------------------------------
# the description cap


def _closure_nodes(desc):
    if isinstance(desc, UnionSet):
        return sum(map(_closure_nodes, desc.members))
    if isinstance(desc, SumClosure):
        return 1 + _closure_nodes(desc.base)
    return 0


# unions of up to six closures, past SET_CLOSURE_CAP on some draws
_closure_unions = st.lists(_closures, min_size=1, max_size=6).map(lambda ms: UnionSet(tuple(ms)))


@given(st.one_of(_sets, _nested_closures, _closure_unions))
@example(UnionSet(tuple(SumClosure(StandardSet(), d) for d in range(1996, 2001))))
@settings(max_examples=200, deadline=None)
def test_desc_json_roundtrips_up_to_the_closure_cap(desc):
    data = desc_to_json(desc)
    if _closure_nodes(desc) <= dcc.SET_CLOSURE_CAP:
        assert desc_from_json(data) == desc
    else:
        with pytest.raises(PreconditionError, match=(
                rf"holds {_closure_nodes(desc)} closures, more than the cap "
                rf"SET_CLOSURE_CAP = {dcc.SET_CLOSURE_CAP}$")):
            desc_from_json(data)


@given(st.one_of(_sets, _closures, _nested_closures), st.integers(min_value=1, max_value=40))
@example(SumClosure(SumClosure(StandardSet(), 5), 10), 40)
@example(SumClosure(UnionSet((StandardSet(), SumClosure(FiniteSet((F(2, 3),)), 3))), 12), 40)
@settings(max_examples=300, deadline=None)
def test_members_walk_matches_the_parent_walks(desc, bound):
    # every closure streams its members descending, as the parent's closure
    # walk lists them over the stream of its base
    if isinstance(desc, SumClosure):
        cut = min(bound, desc.denom_bound)
        base = dcc.materialize(desc.base, cut)
        assert list(dcc._descending(desc, bound)) == _reference_exceptional_closure(
            base, cut)[::-1]
    members = list(dcc._descending(desc, bound))
    assert members == sorted(set(members), reverse=True)


@given(st.one_of(_sets, _closures, _nested_closures), _bounds, _lengths)
@example(FiniteSet((F(1, 2), F(1, 3))), 2, 2)
@example(UnionSet((FiniteSet((F(1, 2), F(1, 3))),)), 2, 2)
@example(StandardSet(), 1, 1)
@settings(max_examples=300, deadline=None)
def test_every_chain_lies_in_the_members_under_the_same_budget(desc, bound, length):
    # finite sets hold values past the bound on some draws, the standard set
    # is drawn at bounds down to 1, and closures list 1 in the base or not
    chain = find_decreasing_chain(desc, length, bound)
    if chain is not None:
        members = set(materialize(desc, bound))
        assert len(chain.elements) == length
        assert all(e > 0 and e in members for e in chain.elements)
        assert dcc.members_among(desc, chain.elements, bound) == set(chain.elements)
