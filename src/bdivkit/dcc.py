"""Coefficient-set descriptions and descending-chain diagnostics.

Coefficient sets live in [0, 1] and come in four shapes: explicit finite
lists, the standard set {(r-1)/r : r in N}, unions, and closures under the
exceptional-sum operation (b1, b2) -> b1 + b2 - 1 (kept only when
non-negative) that a corner blow-up applies to boundary coefficients.

Descending-chain verdicts are three-valued.  Finite sets and the standard
set are decided structurally; closures are probed by a bounded breadth-first
materialization, and a verdict of NOT_DCC always carries a verified witness
chain whose distance to an explicit limit at least halves at every step.  A
closure is never declared DCC: the search can only certify failure.

Materializing a closure exactly is exponential, so the bounded search closes
the base under *left-linear* applications (each round combines the members
the last round added with the base only), for at most SEARCH_ROUNDS rounds
and SEARCH_SUM_CAP exceptional sums; the result is a verified subset of the
closure, which is all a NOT_DCC witness needs.

Every question takes the members' denominator bound as a plain int
(DEFAULT_DENOM_BOUND when a caller names none), and a verdict takes the
length of its witness chain (DEFAULT_CHAIN_LENGTH).  Caps bound the work
the search leaves: the standard set is listed up to the bound
STANDARD_BOUND_CAP, a description read from JSON holds at most
SET_CLOSURE_CAP closures, since each closure pays SEARCH_SUM_CAP, a
closure's base has a common denominator of at most CLOSURE_LCM_BITS_CAP
bits, since every sum is an integer over it, and the run search of a chain
makes at most CHAIN_PROBE_CAP probes.

Members are integers inside this module: a set's members are numerators
over L, the lcm of their denominators, so an exceptional sum is
e = a + b - L and its reduced denominator is L // gcd(e, L).  A closure keeps
its base's L, since every sum has a denominator dividing it, and a union
rescales its parts to the lcm of theirs.  Fractions are built only where a
value leaves the module: by ``materialize`` and for the chains returned.

One memoised walk over a description returns L, its sorted numerators and
the first search limit that fired inside it (a union's first, in member
order; a closure's own, else its base's), so a verdict reads all three from
a single pass.  The chain searches run over those numerators and compare
integers only.  In the halving search the members above a candidate limit
are a suffix of the sorted numerators, and each chain step is one bisection
into that suffix, so a search over N members costs O(N * length * log N)
comparisons.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .exact import PreconditionError, format_rat, parse_int, parse_list, parse_rat_list, record


def standard_coeff(r: int) -> Fraction:
    """(r-1)/r in lowest terms."""
    if r < 1:
        raise PreconditionError("standard coefficients need r >= 1")
    return Fraction(r - 1, r)


# the full closure pairs every new member with every member, so its time grows
# with the square of its size: on a 2-vCPU machine the 1,966 values k/q with
# q <= 80 take about 1 s, and refusing a larger closure takes about as long.  The
# closures of the tests, goldens and benchmark have at most 69 members.
CLOSURE_SIZE_CAP = 2000

# the bits of L, the lcm of a closure's base denominators, which every sum
# and member of the closure is an integer over: lcm(1..STANDARD_BOUND_CAP) has
# 5756, so the standard set's closure at that bound is admitted.  Each sum
# costs time in proportion to the size of L: 600 values (p-1)/p for primes p
# below 30,000 (L of 8,827 bits) took 9.5 s and 263 MiB under `dcc`.
CLOSURE_LCM_BITS_CAP = 5756


def _check_closure_lcm(big_l: int) -> None:
    if big_l.bit_length() > CLOSURE_LCM_BITS_CAP:
        raise PreconditionError(
            f"the closure's base has a common denominator of {big_l.bit_length()} bits, "
            f"more than the cap CLOSURE_LCM_BITS_CAP = {CLOSURE_LCM_BITS_CAP}"
        )


def exceptional_closure(values, denom_bound: int) -> list:
    """Full closure of a finite set of checked values under the exceptional sum.

    Values whose reduced denominator exceeds denom_bound are pruned (and do
    not generate), which keeps the universe finite; the result is sorted
    ascending.  The sum of two values below 1 never reaches 1, so 1 is in
    the closure exactly when the values list it.  A closure with more than
    CLOSURE_SIZE_CAP members, the base among them, and a base whose common
    denominator has more than CLOSURE_LCM_BITS_CAP bits are refused.
    """
    if denom_bound < 1:
        raise PreconditionError("denominator bound must be >= 1")
    big_l, out = _numerators([v for v in values if v.denominator <= denom_bound])
    _check_closure_lcm(big_l)
    frontier = set(out)
    while frontier:
        fresh = set()
        for a in frontier:
            # checked before each row, so the first refuses a base past the cap
            if len(out) + len(fresh) > CLOSURE_SIZE_CAP:
                raise PreconditionError(
                    "the closure has more members than the cap "
                    f"CLOSURE_SIZE_CAP = {CLOSURE_SIZE_CAP}"
                )
            for b in out:
                e = a + b - big_l
                if e >= 0 and e not in out and big_l // gcd(e, big_l) <= denom_bound:
                    fresh.add(e)
        out |= fresh
        frontier = fresh
    return [Fraction(x, big_l) for x in sorted(out)]


def _numerators(values) -> tuple:
    """(L, numerators): the values as integers over L, the lcm of their denominators."""
    big_l = lcm(*(v.denominator for v in values))
    return big_l, {v.numerator * (big_l // v.denominator) for v in values}


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


# closures one description holds: the search pays SEARCH_SUM_CAP for each
# closure node, so a description costs its closures times the cost of one
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


# the members' denominator bound, and the length of a verdict's witness chain,
# when a caller names neither
DEFAULT_DENOM_BOUND = 2000
DEFAULT_CHAIN_LENGTH = 5

# the rounds of the left-linear search of a closure
SEARCH_ROUNDS = 4

# exceptional sums one closure's search examines: a round costs |frontier| *
# |base| sums, so the closure of the standard set at bound d cost d^3 (6.6 s at
# d = 400); capped, `dcc` on it takes 0.8 s at d = 400 and 2.5 s at d = 2000 as
# a fresh process on a 2-vCPU machine.  Acceptance criterion 9 examines 808,013.
SEARCH_SUM_CAP = 1_000_000

# the largest bound d at which the standard set is listed: its d numerators
# over lcm(1..d) take memory growing as d^2 (686 MiB at d = 60000).  At the cap,
# `chain --verify` on it takes 0.13 s and `dcc` on its closure 5.6 s as a fresh
# process on a 2-vCPU machine.
STANDARD_BOUND_CAP = 4000


def materialize(desc: CoeffSetDesc, denom_bound: int = DEFAULT_DENOM_BOUND) -> list:
    """Sorted members of the description with denominators <= denom_bound.

    Finite sets and the standard set are truncated at the bound, and a union
    holds its members' truncations; a closure is explored by the bounded
    left-linear search (a verified subset of the closure).  Listing the
    standard set past STANDARD_BOUND_CAP is refused.
    """
    big_l, nums, _ = _members(desc, denom_bound)
    return [Fraction(x, big_l) for x in nums]


@lru_cache(maxsize=32)
def _members(desc: CoeffSetDesc, denom_bound: int) -> tuple:
    """(L, materialize's members as sorted numerators over L, the first search
    limit that fired or None), where L is the lcm of the members' denominators.

    A union's limit is the first that fired among its members, in order; a
    closure's is its own, or else its base's.  A closure's frontier is sorted,
    so the members kept when SEARCH_SUM_CAP fires do not depend on set order.
    """
    if isinstance(desc, FiniteSet):
        big_l, nums = _numerators([v for v in desc.values if v.denominator <= denom_bound])
        return big_l, tuple(sorted(nums)), None
    if isinstance(desc, StandardSet):
        if denom_bound > STANDARD_BOUND_CAP:
            raise PreconditionError(
                "listing the standard set needs a denominator bound of at most the cap "
                f"STANDARD_BOUND_CAP = {STANDARD_BOUND_CAP}, got {denom_bound}"
            )
        big_l = lcm(*range(1, denom_bound + 1))
        return big_l, tuple((r - 1) * (big_l // r) for r in range(1, denom_bound + 1)), None
    if isinstance(desc, UnionSet):
        parts = [_members(m, denom_bound) for m in desc.members]
        big_l = lcm(*(part_l for part_l, _, _ in parts))
        nums = set()
        for part_l, part_nums, _ in parts:
            nums.update(x * (big_l // part_l) for x in part_nums)
        return big_l, tuple(sorted(nums)), next((stop for _, _, stop in parts if stop), None)
    if not isinstance(desc, SumClosure):
        raise PreconditionError(f"unknown set description: {desc!r}")
    bound = min(denom_bound, desc.denom_bound)
    big_l, base_nums, base_stop = _members(desc.base, bound)
    _check_closure_lcm(big_l)
    current = set(base_nums)
    frontier = base_nums
    # the frontier rows, of len(base_nums) sums each, that SEARCH_SUM_CAP allows
    rows = SEARCH_SUM_CAP // max(len(base_nums), 1)
    pruned = False
    for _ in range(SEARCH_ROUNDS):
        capped = len(frontier) > rows
        fresh = set()
        for a in frontier[:rows]:
            for b in base_nums:
                e = a + b - big_l
                if e >= 0 and e not in current and e not in fresh:
                    if big_l // gcd(e, big_l) <= bound:
                        fresh.add(e)
                    else:
                        pruned = True
        rows -= len(frontier)
        current |= fresh
        frontier = sorted(fresh)
        if capped or not frontier:
            break
    if capped:
        stop = "max_size"
    elif frontier:
        stop = "rounds"
    else:
        stop = "denom_bound" if pruned else None
    return big_l, tuple(sorted(current)), stop or base_stop


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


# (q, k) probes one arithmetic-run search makes: a scan up to the denominator
# q costs about q^2 / 2, so `chain` on the closure of {1/2, (q-1)/q} at bound
# q took 5.4 s at q = 20000 as a fresh process on a 2-vCPU machine, and
# nothing caps the bound.
CHAIN_PROBE_CAP = 1_000_000


def _arithmetic_run_chain(big_l: int, nums: tuple, length: int) -> Chain | None:
    """A descending run k0/q > (k0-1)/q > ... inside the members, if any.

    The members are the positive numerators nums over big_l.  Searches common
    denominators q ascending, up to the largest reduced denominator of a
    member, and returns the first run of consecutive multiples of 1/q of the
    requested length.  k/q is a member exactly when k L / q is an integer
    and one of the numerators.  The search stops, finding no run, before a q
    whose q - 1 probes, one per k, would take the total past CHAIN_PROBE_CAP.
    """
    members = set(nums)
    if not members:
        return None
    max_q = max(big_l // gcd(x, big_l) for x in members)
    for q in range(2, max_q + 1):
        if q * (q - 1) // 2 > CHAIN_PROBE_CAP:  # the probes up to q
            return None
        run = []
        for k in range(q - 1, 0, -1):
            if k * big_l % q == 0 and k * big_l // q in members:
                if run and run[-1] - k != 1:
                    run = []
                run.append(k)
                if len(run) >= length:
                    return Chain(tuple(Fraction(k2, q) for k2 in run))
    return None


def _halving_chain(big_l: int, nums: tuple, length: int) -> Chain | None:
    """A chain whose distance to an explicit limit halves at every step.

    The members are the sorted positive numerators nums over big_l.  For each
    candidate limit (0 first, then members ascending), greedily picks the
    largest member within half the previous distance; the returned chain
    satisfies x_{i+1} - limit <= (x_i - limit) / 2, so its differences
    shrink geometrically toward the limit.  The members above a limit are a
    suffix of nums, and each pick is one bisection into it; with integer
    members, y <= limit + (x - limit) / 2 exactly when y <= limit +
    (x - limit) // 2.
    """
    for limit in (0,) + nums:
        lo = bisect_right(nums, limit)  # nums[lo:] lies above the limit
        if len(nums) - lo < length:
            continue
        chain = [nums[-1]]
        while len(chain) < length:
            hi = bisect_right(nums, limit + (chain[-1] - limit) // 2, lo)
            if hi == lo:
                break
            chain.append(nums[hi - 1])
        if len(chain) >= length:
            return Chain(tuple(Fraction(x, big_l) for x in chain), limit=Fraction(limit, big_l))
    return None


def find_decreasing_chain(
    desc: CoeffSetDesc, length: int, denom_bound: int = DEFAULT_DENOM_BOUND
) -> Chain | None:
    """A strictly decreasing chain of positive members of materialize(desc, denom_bound), or None.

    A finite set yields its length largest positive members.  The standard
    set is increasing, so below any fixed member it holds only finitely many
    elements and is treated structurally, unlisted at any bound: its one
    chain is (d-1)/d for the bound d >= 2, and no chain of length >= 2 is
    ever produced as a witness.
    A union answers from its first member with a chain.  Closures are
    searched for constant-step runs or halving chains.
    """
    if length < 1:
        raise PreconditionError("chain length must be >= 1")
    if isinstance(desc, StandardSet):
        if length == 1 and denom_bound > 1:
            return Chain((standard_coeff(denom_bound),))
        return None
    if isinstance(desc, UnionSet):
        chains = (find_decreasing_chain(m, length, denom_bound) for m in desc.members)
        return next((chain for chain in chains if chain is not None), None)
    big_l, nums, _ = _members(desc, denom_bound)
    positives = nums[bisect_right(nums, 0):]
    if isinstance(desc, FiniteSet):
        if len(positives) < length:
            return None
        return Chain(tuple(Fraction(x, big_l) for x in reversed(positives[-length:])))
    return _arithmetic_run_chain(big_l, positives, length) or _halving_chain(
        big_l, positives, length
    )


# ---------------------------------------------------------------------------
# verdicts


@record
class DccVerdict:
    verdict: str  # "DCC" | "NOT_DCC" | "UNKNOWN"
    witness: Chain | None = None
    reason: str = ""

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "reason": self.reason}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


_STOP_REASONS = {
    "rounds": "the search used all its rounds with members left to extend",
    "max_size": "the search examined as many exceptional sums as SEARCH_SUM_CAP = {cap} allows",
    "denom_bound": "the denominator bound pruned candidates",
    None: "the left-linear search ran out of new members within every limit",
}


def dcc_verdict(desc: CoeffSetDesc, denom_bound: int = DEFAULT_DENOM_BOUND,
                chain_length: int = DEFAULT_CHAIN_LENGTH) -> DccVerdict:
    """Three-valued descending-chain verdict over the members with
    denominators <= denom_bound, whose witness chains have chain_length members.

    Finite -> DCC.  Standard -> DCC (its only accumulation point is 1 from
    below, so every nonempty subset has a least element).  Unions of decided
    descriptions are decided; an undecided union's reason names its first
    undecided member by index and carries that member's reason.  Closures:
    NOT_DCC when the bounded search finds a verified chain approaching a limit
    with geometrically shrinking distances, else UNKNOWN, whose reason names
    the search limit that ended the search (SEARCH_ROUNDS, SEARCH_SUM_CAP or
    the denominator bound), if any -- a closure is never declared DCC.
    """
    if isinstance(desc, FiniteSet):
        return DccVerdict("DCC", reason="finite set")
    if isinstance(desc, StandardSet):
        return DccVerdict(
            "DCC", reason="increasing sequence accumulating only at 1"
        )
    if isinstance(desc, UnionSet):
        verdicts = [dcc_verdict(m, denom_bound, chain_length) for m in desc.members]
        for v in verdicts:
            if v.verdict == "NOT_DCC":
                return DccVerdict("NOT_DCC", witness=v.witness, reason=v.reason)
        for i, v in enumerate(verdicts):
            if v.verdict == "UNKNOWN":
                return DccVerdict("UNKNOWN", reason=f"member {i} is undecided: {v.reason}")
        return DccVerdict("DCC", reason="finite union of DCC sets")
    big_l, nums, stop = _members(desc, denom_bound)
    chain = _halving_chain(big_l, nums[bisect_right(nums, 0):], chain_length)
    if chain is not None:
        return DccVerdict(
            "NOT_DCC",
            witness=chain,
            reason="verified chain with geometrically shrinking distance "
            "to its limit",
        )
    return DccVerdict(
        "UNKNOWN",
        reason=f"no witness found: {_STOP_REASONS[stop].format(cap=SEARCH_SUM_CAP)}; "
        "closures are never declared DCC",
    )
