from contextlib import contextmanager
from fractions import Fraction as F
from functools import lru_cache
from math import gcd, inf, lcm
from unittest import mock

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
    assert find_decreasing_chain(StandardSet(), 2, 100) is None
    assert find_decreasing_chain(StandardSet(), 5, 100) is None
    one = find_decreasing_chain(StandardSet(), 1, 100)
    assert one is not None and one.elements == (F(99, 100),)
    # below the bound 1 the set holds 0 alone, no positive member
    assert find_decreasing_chain(StandardSet(), 1, 1) is None


def test_find_chain_closure():
    desc = SumClosure(truncated_standard(43), denom_bound=2000)
    chain = find_decreasing_chain(desc, 5, 2000)
    assert chain is not None and len(chain.elements) == 5
    members = set(materialize(desc, 2000))
    for e in chain.elements:
        assert e in members and e > 0
    diffs = [a - b for a, b in zip(chain.elements, chain.elements[1:])]
    assert all(d2 <= d1 for d1, d2 in zip(diffs, diffs[1:]))


def test_the_run_search_stops_at_the_probe_cap(monkeypatch):
    # the closure of {1/2, 19/20} holds the run 5/10 > 4/10 > 3/10, which the
    # search reaches at q = 10 after 1 + 2 + ... + 9 = 45 probes
    desc = SumClosure(FiniteSet((F(1, 2), F(19, 20))), denom_bound=20)
    monkeypatch.setattr(dcc, "CHAIN_PROBE_CAP", 45)
    run = find_decreasing_chain(desc, 3, 20)
    assert run.elements == (F(1, 2), F(2, 5), F(3, 10)) and run.limit is None
    # one probe fewer stops before q = 10, and the halving chain answers
    monkeypatch.setattr(dcc, "CHAIN_PROBE_CAP", 44)
    halving = find_decreasing_chain(desc, 3, 20)
    assert halving.elements == (F(19, 20), F(1, 2), F(2, 5)) and halving.limit == F(3, 10)


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


def test_verdict_closure_not_dcc():
    desc = SumClosure(truncated_standard(43), denom_bound=2000)
    verdict = dcc_verdict(desc)
    assert verdict.verdict == "NOT_DCC"
    chain = verdict.witness
    assert chain is not None and len(chain.elements) >= 5
    # witness quality: distance to the limit at least halves
    limit = chain.limit
    assert limit is not None
    gaps = [e - limit for e in chain.elements]
    assert all(b <= a / 2 for a, b in zip(gaps, gaps[1:]))
    # every element is a verified member
    members = set(materialize(desc, 2000))
    assert all(e in members for e in chain.elements)


def test_verdict_closure_never_claims_dcc():
    tiny = SumClosure(FiniteSet((F(1, 2),)), denom_bound=10)
    assert dcc_verdict(tiny).verdict == "UNKNOWN"


# 6/7 steps down through 5/7, 4/7, ... one value per round, one sum per round:
# the search's four rounds end at 2/7, with 1/7 and 0 left to find
_SEVENTHS = SumClosure(FiniteSet((F(6, 7),)), denom_bound=7)


@contextmanager
def _sum_cap(cap):
    """dcc.SEARCH_SUM_CAP lowered to cap (None keeps it), with no member list
    cached under another cap before or after."""
    dcc._members.cache_clear()
    try:
        with mock.patch.object(dcc, "SEARCH_SUM_CAP", cap or dcc.SEARCH_SUM_CAP):
            yield
    finally:
        dcc._members.cache_clear()


@pytest.mark.parametrize("desc, cap, limit", [
    pytest.param(_SEVENTHS, None, "used all its rounds", id="rounds"),
    # the second round's one sum would be past the cap
    pytest.param(_SEVENTHS, 1, "examined as many exceptional sums as SEARCH_SUM_CAP = 1 allows",
                 id="max_size"),
    # 1/2 + 2/3 - 1 = 1/6 is past the bound 3
    pytest.param(SumClosure(FiniteSet((F(1, 2), F(2, 3))), denom_bound=3), None,
                 "denominator bound pruned candidates", id="denom_bound"),
    pytest.param(SumClosure(FiniteSet((F(1, 2),)), denom_bound=10), None,
                 "ran out of new members within every limit", id="enumerated in full"),
    # the outer search runs out of members, over a base its inner search cut short
    pytest.param(SumClosure(_SEVENTHS, denom_bound=7), None,
                 "used all its rounds", id="rounds in the base"),
])
def test_unknown_names_the_limit_that_fired(desc, cap, limit):
    with _sum_cap(cap):
        verdict = dcc_verdict(desc)
    assert verdict.verdict == "UNKNOWN" and verdict.witness is None
    assert verdict.reason.startswith("no witness found: ") and limit in verdict.reason


def test_verdict_union_propagates_not_dcc():
    desc = UnionSet(
        (StandardSet(), SumClosure(truncated_standard(43), denom_bound=2000))
    )
    assert dcc_verdict(desc).verdict == "NOT_DCC"


def test_verdict_soundness_against_chain_search():
    # a DCC claim never coexists with a chain longer than the finite part
    descs = [
        FiniteSet((F(0), F(1, 2), F(6, 7))),
        StandardSet(),
        UnionSet((StandardSet(), FiniteSet((F(1, 3),)))),
        SumClosure(truncated_standard(20), denom_bound=500),
    ]
    for d in descs:
        v = dcc_verdict(d, 500, 5)
        if v.verdict == "DCC":
            assert not isinstance(d, SumClosure)
            long_chain = find_decreasing_chain(d, 50, 500)
            if long_chain is not None:
                assert isinstance(d, FiniteSet) and len(d.values) >= 50


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
# the integer closures against the Fraction code they replaced


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
    return list(_reference_closure_walk(desc, denom_bound, dcc.SEARCH_SUM_CAP)[0])


def _reference_closure_walk(desc, denom_bound, cap):
    """(members, sums examined) of the closure's search under the sum cap."""
    bound = min(denom_bound, desc.denom_bound)
    base = _reference_materialize(desc.base, bound)
    current = set(base)
    frontier = set(base)
    sums = 0
    for _ in range(dcc.SEARCH_ROUNDS):
        fresh = set()
        for a in sorted(frontier):
            if sums + len(base) > cap:
                return tuple(sorted(current | fresh)), sums
            sums += len(base)
            for b in base:
                e = a + b - 1
                if e >= 0 and e.denominator <= bound and e not in current:
                    fresh.add(e)
        current |= fresh
        frontier = fresh
    return tuple(sorted(current)), sums


_unit_fracs = st.one_of(
    st.sampled_from([F(0), F(1)]),
    st.fractions(min_value=F(0), max_value=F(1), max_denominator=16),
)
_bounds = st.integers(min_value=1, max_value=80)
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
        st.builds(_closure, inner, _bounds, st.booleans()),
    ),
    max_leaves=4,
)
_closures = st.builds(_closure, _sets, _bounds, st.booleans())
_lengths = st.integers(min_value=1, max_value=6)
# sum caps that fire on the larger draws, and the default (None); the
# Fraction references draw a lowered cap, which keeps their quadratic searches
# short, as max_size <= 400 did when it was a search option
_lowered_caps = st.integers(min_value=1, max_value=400)
_caps = st.one_of(st.none(), _lowered_caps)


@given(st.lists(_unit_fracs, max_size=6), _bounds, st.booleans())
@settings(max_examples=150, deadline=None)
def test_exceptional_closure_matches_the_fraction_reference(base, bound, with_one):
    base = base + [F(1)] * with_one
    assert exceptional_closure(base, bound) == _reference_exceptional_closure(base, bound)


def _over_one_denominator(values):
    """(L, numerators over L) of Fractions, L the lcm of their denominators."""
    big_l = lcm(*(v.denominator for v in values))
    return big_l, tuple(v.numerator * (big_l // v.denominator) for v in values)


def _reference_members(desc, denom_bound):
    """dcc._members from the Fraction reference and the parent's limit walk (below)."""
    return (*_over_one_denominator(_reference_materialize(desc, denom_bound)),
            _parent_search_stop(desc, denom_bound))


def _on_fractions(parent_search):
    """A parent chain search over Fractions, called as the integer one is."""
    return lambda big_l, nums, length: parent_search([F(x, big_l) for x in nums], length)


@given(_closures, _bounds, _lengths, _lowered_caps)
@settings(max_examples=150, deadline=None)
def test_closure_search_matches_the_fraction_reference(desc, bound, length, cap):
    _parent_materialize_closure.cache_clear()
    with _sum_cap(cap):
        got = materialize(desc, bound)
        assert got == _reference_materialize(desc, bound)
        chain = find_decreasing_chain(desc, length, bound)
        verdict = dcc_verdict(desc, bound, length)
        # the same searches over the reference's members, by the parent's Fraction searches
        with mock.patch.object(dcc, "_members", _reference_members), \
                mock.patch.object(dcc, "_arithmetic_run_chain",
                                  _on_fractions(_parent_arithmetic_run_chain)), \
                mock.patch.object(dcc, "_halving_chain", _on_fractions(_parent_halving_chain)):
            assert chain == find_decreasing_chain(desc, length, bound)
            assert verdict == dcc_verdict(desc, bound, length)


# ---------------------------------------------------------------------------
# the one memoised walk and the bisecting chain search against the code they
# replaced: a second walk that read each closure's search limit back from the
# cache the members walk had filled, and a chain search that rebuilt the
# members above every candidate limit; and the integer walk and chain searches
# against the Fraction members and run search they replaced


@lru_cache(maxsize=32)
def _parent_materialize_closure(desc, denom_bound):
    bound = min(denom_bound, desc.denom_bound)
    base = _reference_materialize(desc.base, bound)  # the same members
    big_l = lcm(*(v.denominator for v in base))
    base_nums = {v.numerator * (big_l // v.denominator) for v in base}
    current = set(base_nums)
    frontier = set(base_nums)
    pruned = capped = False
    sums = 0
    for _ in range(dcc.SEARCH_ROUNDS):
        if not frontier or capped:
            break
        fresh = set()
        for a in sorted(frontier):
            capped = sums + len(base_nums) > dcc.SEARCH_SUM_CAP
            if capped:
                break
            sums += len(base_nums)
            for b in base_nums:
                e = a + b - big_l
                if e >= 0 and e not in current and e not in fresh:
                    if big_l // gcd(e, big_l) <= bound:
                        fresh.add(e)
                    else:
                        pruned = True
        current |= fresh
        frontier = fresh
    if capped:
        stop = "max_size"
    elif not frontier:
        stop = "denom_bound" if pruned else None
    else:
        stop = "rounds"
    members = tuple(F(x, big_l) for x in sorted(current))
    return members, stop or _parent_search_stop(desc.base, bound)


def _parent_search_stop(desc, denom_bound):
    if isinstance(desc, SumClosure):
        return _parent_materialize_closure(desc, denom_bound)[1]
    if isinstance(desc, UnionSet):
        for m in desc.members:
            stop = _parent_search_stop(m, denom_bound)
            if stop is not None:
                return stop
    return None


def _parent_arithmetic_run_chain(values, length):
    members = set(values)
    if not members:
        return None
    max_q = max(v.denominator for v in members)
    for q in range(2, max_q + 1):
        ks = sorted((k for k in range(1, q) if F(k, q) in members), reverse=True)
        run = []
        for k in ks:
            if run and run[-1] - k != 1:
                run = []
            run.append(k)
            if len(run) >= length:
                return Chain(tuple(F(k2, q) for k2 in run[:length]))
    return None


def _parent_halving_chain(values, length):
    ordered = sorted(values)
    limits = [F(0)] + ordered
    for limit in limits:
        above = [v for v in ordered if v > limit]
        if len(above) < length:
            continue
        chain = [above[-1]]
        while len(chain) < length:
            gap = chain[-1] - limit
            target = limit + gap / 2
            lo, hi = 0, len(above)
            while lo < hi:
                mid = (lo + hi) // 2
                if above[mid] <= target:
                    lo = mid + 1
                else:
                    hi = mid
            if lo == 0:
                break
            nxt = above[lo - 1]
            if nxt <= limit or nxt >= chain[-1]:
                break
            chain.append(nxt)
        if len(chain) >= length:
            return Chain(tuple(chain[:length]), limit=limit)
    return None


# denominator bounds that fire on some draws
_tight_bounds = st.integers(min_value=1, max_value=40)


# a closure over a closure: the inner search can fire where the outer one does not
_nested_closures = st.builds(_closure, _closures, _bounds, st.booleans())


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


@given(st.one_of(_sets, _closures, _nested_closures), st.one_of(_bounds, _tight_bounds),
       _lowered_caps)
@settings(max_examples=300, deadline=None)
def test_members_walk_matches_the_parent_walks(desc, bound, cap):
    _parent_materialize_closure.cache_clear()
    with _sum_cap(cap):
        big_l, nums, stop = dcc._members(desc, bound)
        assert (big_l, nums) == _over_one_denominator(_reference_materialize(desc, bound))
        assert stop == _parent_search_stop(desc, bound)


@given(st.one_of(_sets, _closures, _nested_closures), st.one_of(_bounds, _tight_bounds),
       _caps, _lengths)
@example(FiniteSet((F(1, 2), F(1, 3))), 2, None, 2)
@example(UnionSet((FiniteSet((F(1, 2), F(1, 3))),)), 2, None, 2)
@example(StandardSet(), 1, None, 1)
@settings(max_examples=300, deadline=None)
def test_every_chain_lies_in_the_members_under_the_same_budget(desc, bound, cap, length):
    # finite sets hold values past the bound on some draws, the standard set
    # is drawn at bounds down to 1, and closures list 1 in the base or not
    with _sum_cap(cap):
        chain = find_decreasing_chain(desc, length, bound)
        if chain is not None:
            members = set(materialize(desc, bound))
            assert len(chain.elements) == length
            assert all(e > 0 and e in members for e in chain.elements)


def test_members_walk_reports_every_limit():
    # the limits the property test above compares, each seen on a union that
    # holds the closure second, behind a finite member; the closure of that
    # union at bound 7 reports its base's limit, except for the cap, which
    # fires in the outer search too
    closures = {
        "rounds": (_SEVENTHS, None),
        "max_size": (_SEVENTHS, 1),
        "denom_bound": (SumClosure(FiniteSet((F(1, 2), F(2, 3))), denom_bound=3), None),
        None: (SumClosure(FiniteSet((F(1, 2),)), denom_bound=10), None),
    }
    for limit, (closure, cap) in closures.items():
        union = UnionSet((FiniteSet((F(1, 7),)), closure))
        with _sum_cap(cap):
            assert dcc._members(union, 7)[2] == limit
            assert dcc._members(SumClosure(union, 7), 7)[2] == limit


# closures whose base holds no closure, so that their own search is the only one
_flat_closures = st.builds(_closure, _plain_sets, _bounds, st.booleans())


def _holds_a_closure(desc):
    return isinstance(desc, SumClosure) or (
        isinstance(desc, UnionSet) and any(map(_holds_a_closure, desc.members)))


@given(st.one_of(_sets, _closures, _nested_closures, _flat_closures), _bounds, _lengths,
       _lowered_caps)
@settings(max_examples=300, deadline=None)
def test_a_lowered_sum_cap_keeps_a_subset_of_the_members(desc, bound, length, cap):
    dcc._members.cache_clear()
    full = set(materialize(desc, bound))
    with _sum_cap(cap):
        capped = set(materialize(desc, bound))
        chain = find_decreasing_chain(desc, length, bound)
        verdict = dcc_verdict(desc, bound, length)
        stop = dcc._members(desc, bound)[2]
    assert capped <= full
    assert chain is None or set(chain.elements) <= capped
    assert verdict.witness is None or set(verdict.witness.elements) <= capped
    if isinstance(desc, SumClosure) and not _holds_a_closure(desc.base):
        # the cap fires exactly when the search without it examines more sums
        fired = _reference_closure_walk(desc, bound, inf)[1] > cap
        assert (stop == "max_size") == fired
        if verdict.verdict == "UNKNOWN":
            assert ("SEARCH_SUM_CAP" in verdict.reason) == fired


_positive_fracs = st.fractions(min_value=F(0), max_value=F(2), max_denominator=24).filter(
    lambda v: v > 0)


@given(st.lists(_positive_fracs, max_size=40).map(sorted), st.integers(min_value=1, max_value=8))
@settings(max_examples=1000, deadline=None)
def test_halving_chain_matches_the_parent(values, length):
    big_l, nums = _over_one_denominator(values)
    assert dcc._halving_chain(big_l, nums, length) == _parent_halving_chain(values, length)


# members of (0, 1] with small denominators, dense enough for runs k/q, (k-1)/q, ...
_run_fracs = st.fractions(min_value=F(0), max_value=F(1), max_denominator=12).filter(
    lambda v: v > 0)


@given(st.lists(_run_fracs, max_size=40).map(lambda vs: sorted(set(vs))),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=500, deadline=None)
def test_arithmetic_run_chain_matches_the_parent(values, length):
    big_l, nums = _over_one_denominator(values)
    assert dcc._arithmetic_run_chain(big_l, nums, length) == _parent_arithmetic_run_chain(
        values, length)
