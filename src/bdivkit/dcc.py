"""Coefficient-set descriptions, their members in descending order, and
descending-chain verdicts.

Coefficient sets live in [0, 1] and come in four shapes: explicit finite
lists, the standard set {(r-1)/r : r in N}, unions, and closures under the
exceptional-sum operation (b1, b2) -> b1 + b2 - 1 (kept only when
non-negative) that a corner blow-up applies to boundary coefficients.

A description denotes its whole set; verdicts are about that set.  A
denominator bound, a caller's ``denom_bound`` or a closure's own, only cuts
what is listed: the members whose denominators are at most the bound.  A
closure cuts by pruning, so a sum past its bound is dropped before it can
generate others, and a closure inside a closure is cut at the smaller bound.
Every question is answered from four facts:

1. The walk.  The exceptional sum of two members below 1 lies below both,
   and a sum reaches 1 only as 1 + 1 - 1.  So the members of a closure
   above x come only from members above x: popping the largest candidate,
   pairing it with each member popped so far (they are larger) while the sum
   stays non-negative, and pushing each new sum within the bound lists the
   closure of a base with bounded denominators exactly, in descending order.
   All of it is integers over L, the lcm of the base's denominators: a sum is
   e = a + b - L, with reduced denominator L // gcd(e, L).
2. The Farey form.  Cut at d, the closure of a base that holds the standard
   set cut at d is the Farey fractions of order d in [0, 1), with 1 when the
   base lists 1.  Proof: p/q with q <= d is (q-1)/q summed with (q-1)/q
   q-1-p times, and the partial sums (q-1-j)/q have denominators dividing q;
   conversely every member lies in [0, 1] with denominator at most d, and 1
   only comes from the base.
3. A closure whose base holds the standard set is not DCC: 1/m is (m-1)/m
   summed with itself m-2 times, so 1/2 > 1/3 > 1/4 > ... lies in it and
   descends to 0.
4. Every other closure is DCC.  Its base's denominators divide one L (finite
   sets have one, and unions and closures of such bases keep one), and every
   sum is an integer over L, so the closure lies in (1/L)Z ∩ [0, 1], a
   finite set.

Finite sets are DCC, the standard set is too (increasing, accumulating only
at 1), and a union is DCC exactly when each of its members is.

So each description lists its members, cut at a bound, as one lazy stream
in descending order: a finite set its values, the standard set (r-1)/r for
r = d, ..., 1, a union the merge of its members' streams, and a closure the
stream of its base when that is a closure whose own bound reaches the cut
(pruned at one bound, the closure of a closure is itself), else the Farey
fractions when its base holds the standard set at the closure's bound, else
the walk over its base's members.  A chain is the first positive
members of the stream, and a verdict reads the description alone.  The walk
finds at most CLOSURE_SIZE_CAP members over an L of at most
CLOSURE_LCM_BITS_CAP bits, and a description read from JSON holds at most
SET_CLOSURE_CAP closures.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush, merge
from itertools import chain, groupby, islice, starmap, takewhile
from math import gcd, lcm

from .exact import PreconditionError, format_rat, parse_int, parse_list, parse_rat_list, record


def standard_coeff(r: int) -> Fraction:
    """(r-1)/r in lowest terms."""
    if r < 1:
        raise PreconditionError("standard coefficients need r >= 1")
    return Fraction(r - 1, r)


# the members one walk finds, its base among them, the members one listing
# holds, and the longest chain a caller may ask for: each member the walk pops
# is paired with those popped before it, so its time grows with the square of
# its size; `closure` on the 1,965 values k/q with q <= 80 takes 0.47 s in a
# fresh process on a 2-vCPU machine.  The benchmark's closures have at most
# 352 members, and its chains 4.
CLOSURE_SIZE_CAP = 2000

# the bits of L, the lcm of a walked closure's base denominators, which every
# sum and member is an integer over: lcm(1..4000) has 5756, so the standard
# coefficients up to 3999/4000 are admitted as a finite base.  Each sum costs
# time in proportion to the size of L: the walk over the 389 values (p-1)/p
# for the largest primes p below 30,000 (L of 5,746 bits) reaches the size
# cap in 1.9 s, and the 600 largest (8,827 bits) once took 9.5 s and 263 MiB.
CLOSURE_LCM_BITS_CAP = 5756


def _walk(values, denom_bound: int):
    """The closure of values (checked, with denominators <= denom_bound) under
    the exceptional sum, pruned at denom_bound, in descending order (fact 1).

    A base whose common denominator has more than CLOSURE_LCM_BITS_CAP bits
    is refused, and so is a closure once the walk has found more than
    CLOSURE_SIZE_CAP members, the base among them.
    """
    big_l = lcm(*(v.denominator for v in values))
    if big_l.bit_length() > CLOSURE_LCM_BITS_CAP:
        raise PreconditionError(
            f"the closure's base has a common denominator of {big_l.bit_length()} bits, "
            f"more than the cap CLOSURE_LCM_BITS_CAP = {CLOSURE_LCM_BITS_CAP}"
        )
    found = {v.numerator * (big_l // v.denominator) for v in values}
    heap = [-x for x in found]
    heapify(heap)
    popped = []
    while heap:
        # checked before each pop, so the first refuses a base past the cap
        if len(found) > CLOSURE_SIZE_CAP:
            raise PreconditionError(
                f"the closure has more members than the cap CLOSURE_SIZE_CAP = {CLOSURE_SIZE_CAP}"
            )
        a = -heappop(heap)
        popped.append(a)
        for b in popped:
            e = a + b - big_l
            if e < 0:
                break
            if e not in found and big_l // gcd(e, big_l) <= denom_bound:
                found.add(e)
                heappush(heap, -e)
        yield Fraction(a, big_l)


def _farey(order: int):
    """The Farey fractions of the order in [0, 1), descending, as pairs (p, q).

    Neighbours a/b > c/d of the sequence are followed by (k c - a)/(k d - b)
    with k = (order + b) // d.
    """
    a, b, c, d = 1, 1, order - 1, order
    while True:
        yield c, d
        if not c:
            return
        k = (order + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


# ---------------------------------------------------------------------------
# set descriptions


@record
class FiniteSet:
    values: tuple

    def __post_init__(self):
        vals = tuple(sorted(set(parse_rat_list(self.values))))
        for v in vals:
            if not 0 <= v <= 1:
                raise PreconditionError(f"{format_rat(v)} is outside [0, 1]")
        object.__setattr__(self, "values", vals)


@record
class StandardSet:
    """The set {(r-1)/r : r in N}: increasing, accumulating only at 1."""


@record
class UnionSet:
    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise PreconditionError("a union needs at least one member")


@record
class SumClosure:
    """Closure of a base description under the exceptional sum."""

    base: object
    denom_bound: int

    def __post_init__(self):
        if self.denom_bound < 1:
            raise PreconditionError("denominator bound must be >= 1")


CoeffSetDesc = object  # FiniteSet | StandardSet | UnionSet | SumClosure


# materializing, hashing and printing a description recurse once per level
MAX_SET_DEPTH = 100


_DESC_KEYS = {"finite": {"kind", "values"}, "standard": {"kind"}, "union": {"kind", "members"},
              "closure": {"kind", "base", "denom_bound"}}


# closures one description holds: a closure over another cut at a smaller
# bound lists that one in full as its base (over one whose bound reaches its
# own, it reads that one's stream), and a walk costs up to about 2 s
# (CLOSURE_LCM_BITS_CAP)
SET_CLOSURE_CAP = 4


def desc_from_json(data: dict) -> CoeffSetDesc:
    """The description a JSON object holds; a key its kind does not read is
    refused, and so is a description holding more than SET_CLOSURE_CAP closures."""
    desc = _desc_from_json(data, 0)
    count = _closure_count(desc)
    if count > SET_CLOSURE_CAP:
        raise PreconditionError(
            f"the set description holds {count} closures, more than the cap "
            f"SET_CLOSURE_CAP = {SET_CLOSURE_CAP}"
        )
    return desc


def _closure_count(desc: CoeffSetDesc) -> int:
    if isinstance(desc, UnionSet):
        return sum(map(_closure_count, desc.members))
    if isinstance(desc, SumClosure):
        return 1 + _closure_count(desc.base)
    return 0


def _desc_from_json(data: dict, depth: int) -> CoeffSetDesc:
    if depth > MAX_SET_DEPTH:
        raise PreconditionError(
            f"set description nested deeper than the cap MAX_SET_DEPTH = {MAX_SET_DEPTH}"
        )
    if not isinstance(data, dict):
        raise PreconditionError(f"a set description must be an object, got {data!r}")
    kind = data.get("kind")
    keys = _DESC_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise PreconditionError(f"unknown set description kind: {kind!r}")
    stray = data.keys() - keys
    if stray:
        raise PreconditionError(
            f"a {kind} set description takes no key {', '.join(sorted(map(repr, stray)))}"
        )
    try:
        if kind == "finite":
            return FiniteSet(data["values"])
        if kind == "standard":
            return StandardSet()
        if kind == "union":
            members = parse_list(data["members"], "set descriptions")
            return UnionSet(tuple(_desc_from_json(m, depth + 1) for m in members))
        return SumClosure(
            base=_desc_from_json(data["base"], depth + 1),
            denom_bound=parse_int(data["denom_bound"], "denom_bound"),
        )
    except KeyError as exc:
        raise PreconditionError(f"malformed {kind} set description: {exc}") from exc


# ---------------------------------------------------------------------------
# members


# the members' denominator bound, and the length of a verdict's witness chain,
# when a caller names neither
DEFAULT_DENOM_BOUND = 2000
DEFAULT_CHAIN_LENGTH = 5


def _holds_standard(desc: CoeffSetDesc, denom_bound: int = 0) -> bool:
    """Whether desc cut at denom_bound holds the standard set cut there; at 0,
    whether desc's whole set holds the standard set.

    A closure with a smaller bound of its own cuts the standard set shorter,
    so only closures whose bounds reach denom_bound pass it on.
    """
    if isinstance(desc, StandardSet):
        return True
    if isinstance(desc, UnionSet):
        return any(_holds_standard(m, denom_bound) for m in desc.members)
    if isinstance(desc, SumClosure):
        return desc.denom_bound >= denom_bound and _holds_standard(desc.base, denom_bound)
    return False


def _descending(desc: CoeffSetDesc, denom_bound: int):
    """The members of desc with denominators <= denom_bound, descending."""
    if isinstance(desc, FiniteSet):
        return (v for v in reversed(desc.values) if v.denominator <= denom_bound)
    if isinstance(desc, StandardSet):
        return map(standard_coeff, range(denom_bound, 0, -1))
    if isinstance(desc, UnionSet):
        merged = merge(*(_descending(m, denom_bound) for m in desc.members), reverse=True)
        return (x for x, _ in groupby(merged))
    if not isinstance(desc, SumClosure):
        raise PreconditionError(f"unknown set description: {desc!r}")
    bound = min(denom_bound, desc.denom_bound)
    if isinstance(desc.base, SumClosure) and desc.base.denom_bound >= bound:
        # pruned at one bound, the closure of a closure is the closure itself
        return _descending(desc.base, bound)
    if _holds_standard(desc.base, bound):
        # every stream descends from at most 1, so its head says whether it lists 1
        one = [Fraction(1)] if next(_descending(desc.base, bound), None) == 1 else []
        return chain(one, starmap(Fraction, _farey(bound)))
    return _walk(materialize(desc.base, bound), bound)


def materialize(desc: CoeffSetDesc, denom_bound: int = DEFAULT_DENOM_BOUND) -> list:
    """Sorted members of the description with denominators <= denom_bound.

    A listing of more than CLOSURE_SIZE_CAP members is refused.
    """
    members = list(islice(_descending(desc, denom_bound), CLOSURE_SIZE_CAP + 1))
    if len(members) > CLOSURE_SIZE_CAP:
        raise PreconditionError(
            f"the set has more members than the cap CLOSURE_SIZE_CAP = {CLOSURE_SIZE_CAP}"
        )
    members.reverse()
    return members


def members_among(desc: CoeffSetDesc, values, denom_bound: int = DEFAULT_DENOM_BOUND) -> set:
    """The values that are members of desc with denominators <= denom_bound.

    The standard set and a closure holding it at its bound decide by rule
    (fact 2); any other closure reads its stream down to the least value
    asked, since the members above it come only from members above it
    (fact 1).
    """
    values = [x for x in values if x.denominator <= denom_bound]
    if isinstance(desc, FiniteSet):
        return set(values).intersection(desc.values)
    if isinstance(desc, StandardSet):
        return {x for x in values if x.numerator + 1 == x.denominator}
    if isinstance(desc, UnionSet):
        found = set()
        for m in desc.members:
            found |= members_among(m, [x for x in values if x not in found], denom_bound)
        return found
    bound = min(denom_bound, desc.denom_bound)
    values = [x for x in values if x.denominator <= bound]
    if not values:
        return set()
    if _holds_standard(desc.base, bound):
        ones = [x for x in values if x == 1]
        return {x for x in values if 0 <= x < 1} | members_among(desc.base, ones, bound)
    least = min(values)
    return set(values).intersection(takewhile(least.__le__, _descending(desc, bound)))


# ---------------------------------------------------------------------------
# chains


@record
class Chain:
    """Strictly decreasing members of a described set."""

    elements: tuple
    limit: Fraction | None = None

    def __post_init__(self):
        elems = tuple(parse_rat_list(self.elements))
        for a, b in zip(elems, elems[1:]):
            if not a > b:
                raise PreconditionError("chain is not strictly decreasing")
        object.__setattr__(self, "elements", elems)

    def to_json(self) -> dict:
        out = {"elements": [format_rat(e) for e in self.elements]}
        if self.limit is not None:
            out["limit"] = format_rat(self.limit)
        return out


def _check_length(length: int, what: str) -> None:
    if length < 1:
        raise PreconditionError(f"{what} must be >= 1")
    if length > CLOSURE_SIZE_CAP:
        raise PreconditionError(
            f"{what} {length} is more than the cap CLOSURE_SIZE_CAP = {CLOSURE_SIZE_CAP}"
        )


def find_decreasing_chain(
    desc: CoeffSetDesc, length: int, denom_bound: int = DEFAULT_DENOM_BOUND
) -> Chain | None:
    """The length largest positive members of desc with denominators <=
    denom_bound, descending, or None when it has fewer.

    A length past CLOSURE_SIZE_CAP is refused.
    """
    _check_length(length, "chain length")
    top = list(islice(takewhile(bool, _descending(desc, denom_bound)), length))
    return Chain(tuple(top)) if len(top) == length else None


# ---------------------------------------------------------------------------
# verdicts


@record
class DccVerdict:
    verdict: str  # "DCC" | "NOT_DCC"
    witness: Chain | None = None
    reason: str = ""

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "reason": self.reason}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def dcc_verdict(desc: CoeffSetDesc, chain_length: int = DEFAULT_CHAIN_LENGTH) -> DccVerdict:
    """Whether desc's whole set satisfies the descending chain condition,
    read from the description alone (facts 3 and 4).

    A closure whose base holds the standard set is NOT_DCC, with the witness
    1/2 > 1/3 > ... of chain_length members and its limit 0; every other
    closure, finite set and the standard set is DCC, and a union is NOT_DCC
    with its first member that is.  A chain_length past CLOSURE_SIZE_CAP is
    refused.
    """
    _check_length(chain_length, "threshold")
    if isinstance(desc, UnionSet):
        verdicts = (dcc_verdict(m, chain_length) for m in desc.members)
        return next((v for v in verdicts if v.verdict == "NOT_DCC"),
                    DccVerdict("DCC", reason="finite union of DCC sets"))
    if isinstance(desc, SumClosure):
        if _holds_standard(desc.base):
            return DccVerdict(
                "NOT_DCC",
                witness=Chain(tuple(Fraction(1, m) for m in range(2, chain_length + 2)),
                              limit=Fraction(0)),
                reason="the base holds the standard set, and 1/m is (m-1)/m summed "
                "with itself m-2 times",
            )
        return DccVerdict(
            "DCC", reason="the base's denominators divide one L, so the closure lies "
            "in the finite set (1/L)Z in [0, 1]"
        )
    if isinstance(desc, StandardSet):
        return DccVerdict("DCC", reason="increasing sequence accumulating only at 1")
    return DccVerdict("DCC", reason="finite set")
