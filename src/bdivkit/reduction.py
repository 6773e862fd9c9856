"""Weight-descent reduction of a default-one b-divisor over a local model.

Given a local SNC pair and a b-divisor B whose trace on the model is the
pair itself, a *witness* is a valuation whose B-value is strictly below its
pullback coefficient.  The *weight* of the state is -1 when no witness
exists, and otherwise the maximal number of coefficient-one boundary
components through the centre of a witness.

A *cut* replaces the model by a smooth refinement extracting a chosen set of
valuations (all with positive pullback coefficient), re-traces the pullback
through each one-ray extraction, takes the ray-wise minimum of those traces,
and meets the result with B.  Where a witness of the old weight or more would
be left in a cone that straddles two pieces of some one-ray extraction, that
cone is first split along a hyperplane between the pieces.  The driver picks
the cut valuations chart by chart:

* in a chart with no coefficient-one components, every lattice vector with
  positive pullback coefficient (other than the chart's own rays) is
  extracted;
* otherwise, for every prefix f over the sub-one coordinates with positive
  pullback coefficient, one valuation minimising B over the fibre
  {(f, anything)} is extracted.

With at most one coefficient-one component per chart each such cut strictly
decreases the weight (with two or more a witness can still keep it, and the
driver then stops with an invariant breach), so the loop ends at weight -1,
where the pullback of the final trace is bounded by B everywhere; the
``verify_reduction`` checker confirms that bound at every valuation, by
checking that the fan subdivides the orthant and evaluating the fan rays and
listed deviations, the only valuations where it can fail.

With the default-one representation the witness search is exact: an
unlisted, non-divisorial valuation has B-value 1, which no pullback
coefficient exceeds, so only listed deviations can witness.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul

from .exact import (
    InvariantViolation,
    LatticeVec,
    PreconditionError,
    complement_weights,
    format_rat,
    is_primitive,
    primitive_part,
    record,
    trusted,
)
from .fans import BarycentricResult, Fan, insert_rays, orthant_fan
from .logpairs import (
    BDivisor,
    LocalPair,
    ModelDivisor,
    pullback_at,
    pullback_coeff,
    pullback_gap,
    relative_pullback_coeff,
    unit_index,
    valuation,
)

# the verifier's box count costs O(box); larger boxes are refused
MAX_BOX = 1_000_000


@record
class LocalModel:
    """A local pair with its coefficient-one components listed last."""

    pair: LocalPair

    def __post_init__(self):
        cs = self.pair.coeffs
        seen_one = False
        for c in cs:
            if c == 1:
                seen_one = True
            elif seen_one:
                raise PreconditionError(
                    "coefficient-one components must come last; "
                    "use LocalModel.arrange to permute"
                )

    @property
    def n(self) -> int:
        return self.pair.n

    @property
    def s(self) -> int:
        return sum(1 for c in self.pair.coeffs if c < 1)

    @property
    def w(self) -> int:
        return self.n - self.s

    @classmethod
    def arrange(cls, pair: LocalPair, bdiv: BDivisor | None = None):
        """Sort coefficient-one components last; permute a b-divisor along.

        Returns (model, permuted b-divisor, permutation), where permutation
        maps new positions to original ones.  The pair and b-divisor were
        validated where they were built, and permuting coordinates keeps them
        valid, so the copies are not checked again; under the identity
        permutation they are returned unchanged.
        """
        perm = tuple(sorted(range(pair.n), key=lambda i: (pair.coeffs[i] == 1, i)))
        if bdiv is not None and bdiv.n != pair.n:
            raise PreconditionError("b-divisor dimension mismatch")
        if perm != tuple(range(pair.n)):
            pair = trusted(LocalPair, coeffs=tuple(pair.coeffs[i] for i in perm))
            if bdiv is not None:
                bdiv = trusted(
                    BDivisor,
                    pair_coeffs=tuple(bdiv.pair_coeffs[i] for i in perm),
                    deviations={
                        tuple(vec[i] for i in perm): val
                        for vec, val in bdiv.deviations.items()
                    },
                )
        return cls(pair), bdiv, perm


def _prefix_weights(model: LocalModel) -> tuple:
    """(w, den): the weights 1 - c_i of the sub-one coordinates over den.

    The first s coefficients are the ones below 1, since ``LocalModel`` puts
    every coefficient-one component last, so every w_i is positive.
    """
    return complement_weights(model.pair.coeffs[: model.s])


def positive_pullback_prefixes(model: LocalModel) -> list:
    """All v in N^s with sum v_i (1 - c_i) < 1, sorted lexicographically.

    These are exactly the sub-one coordinate prefixes of valuations with
    positive pullback coefficient; the zero vector is included.  With the
    weights as integers w_i > 0 over one denominator D, a depth-first walk
    extends each prefix by every entry e with e * w_i below the budget D
    minus the prefix's weight, in increasing order, so the output comes
    sorted.  The entries of the last coordinate are the e < budget / w_i,
    the first ceil(budget / w_i) naturals, added in one step.
    """
    w, den = _prefix_weights(model)
    if not w:
        return [()]
    last = len(w) - 1
    out = []

    def walk(prefix, budget):
        step = w[len(prefix)]
        if len(prefix) == last:
            out.extend([prefix + (e,) for e in range(-(-budget // step))])
            return
        e = 0
        while e * step < budget:
            walk(prefix + (e,), budget - e * step)
            e += 1

    walk((), den)
    return out


@record
class Witness:
    """A valuation whose B-value lies strictly below its pullback coefficient.

    ``loc`` is where ``state_witnesses`` located vec in the state's fan; it
    is not written out.
    """

    vec: tuple
    b_value: Fraction
    pullback: Fraction
    stratum: tuple
    weight: int
    loc: BarycentricResult | None = None

    def to_json(self) -> dict:
        return {
            "v": list(self.vec),
            "B": format_rat(self.b_value),
            "pullback": format_rat(self.pullback),
            "stratum": list(self.stratum),
            "weight": self.weight,
        }


def stratum_weight(model: LocalModel, bdiv: BDivisor, stratum) -> tuple:
    """Weight of one stratum of the initial model, with a witness if any.

    The stratum is a nonempty 0-based index set; witnesses centred there are
    valuations supported exactly on it.  Returns (-1, None) without a
    witness, else (count of coefficient-one components through the stratum,
    lex-least witness).
    """
    strat = tuple(sorted(set(stratum)))
    if not strat:
        raise PreconditionError("stratum must be a nonempty index set")
    for i in strat:
        if not 0 <= i < model.n:
            raise PreconditionError(f"stratum index {i} out of range")
    if bdiv.n != model.n:
        raise PreconditionError("b-divisor dimension mismatch")

    candidates = []
    if len(strat) == 1:
        i = strat[0]
        e_i = tuple(1 if j == i else 0 for j in range(model.n))
        candidates.append((e_i, bdiv.pair_coeffs[i]))
    for vec, val in sorted(bdiv.deviations.items()):
        if tuple(i for i, e in enumerate(vec) if e > 0) == strat:
            candidates.append((vec, val))

    w = sum(1 for i in strat if model.pair.coeffs[i] == 1)
    for vec, val in candidates:
        pb = pullback_coeff(model.pair, vec)
        if val < pb:
            return w, Witness(vec, val, pb, strat, w)
    return -1, None


def pair_weight_witness(model: LocalModel, bdiv: BDivisor) -> tuple:
    """(max stratum weight, a witness realizing it), or (-1, None)."""
    support = [i for i, c in enumerate(model.pair.coeffs) if c > 0]
    best = -1
    best_witness = None
    # strata are intersections of boundary components; witnesses force their
    # support inside the positive-coefficient components, so other subsets
    # cannot contribute
    for mask in range(1, 1 << len(support)):
        strat = tuple(support[i] for i in range(len(support)) if mask >> i & 1)
        w, witness = stratum_weight(model, bdiv, strat)
        if witness is not None and w > best:
            best = w
            best_witness = witness
    return best, best_witness


def pick_fiber_minimizer(model: LocalModel, bdiv: BDivisor, prefix) -> LatticeVec:
    """A valuation minimising B over the fibre of a prefix f.

    Among listed deviations whose first s coordinates equal f, the one of
    least value wins (ties to the lexicographically smallest tail).  When no
    listed deviation in the fibre is below the default, the representative
    (f, 1, ..., 1) realises the infimum 1.  For f = 0 with w = 0 the fibre
    holds no valuation at all.
    """
    f = tuple(prefix)
    w, den = _prefix_weights(model)
    if (
        len(f) != len(w)
        or any(not isinstance(e, int) or e < 0 for e in f)
        or sum(map(mul, f, w)) >= den
    ):
        raise PreconditionError(f"prefix {f} has no positive pullback coefficient")
    best = None
    for vec, val in sorted(bdiv.deviations.items()):
        if vec[: model.s] == f and val < 1:
            key = (val, vec[model.s :])
            if best is None or key < best[0]:
                best = (key, vec)
    if best is not None:
        return best[1]
    rep = f + (1,) * model.w
    if all(e == 0 for e in rep) or not is_primitive(rep):
        # with w = 0 the fibre is the single lattice point f itself, which is
        # a valuation only when f is nonzero and primitive
        raise PreconditionError(f"the fibre over {f} holds no valuation")
    return rep


# ---------------------------------------------------------------------------
# reduction states


@record
class ReductionState:
    """Current model, its boundary trace, and the b-divisor rebased to it.

    Invariant: the b-divisor value at every fan ray equals the trace
    coefficient there (unit rays via pair values, others via deviations).
    """

    fan: Fan
    phi: ModelDivisor
    bdiv: BDivisor

    def __post_init__(self):
        if self.phi.fan != self.fan:
            raise PreconditionError("trace lives on a different fan")
        if self.bdiv.n != self.fan.n:
            raise PreconditionError("b-divisor dimension mismatch")

    def trace_consistent(self) -> bool:
        """Whether the b-divisor agrees with the trace on every fan ray.

        Holds for every state produced by ``initial_state`` and ``build_cut``;
        hand-built states fed to the verifier may break it on purpose.
        """
        return tuple(map(self.bdiv.value, self.fan.rays)) == self.phi.ray_coeffs

    def value(self, v) -> Fraction:
        return self.bdiv.value(v)

    @cached_property
    def witnesses(self) -> list:
        """``state_witnesses(self)``, found once per state.

        A cut finds the witnesses of the state it makes, to decide its piece
        splits, and the driver reads the same list for the next round.
        """
        return state_witnesses(self)

    def to_json(self) -> dict:
        return {
            "fan": self.fan.to_json(),
            "phi": [format_rat(c) for c in self.phi.ray_coeffs],
            "B": self.bdiv.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ReductionState":
        try:
            fan = Fan.from_json(data["fan"])
            phi = ModelDivisor(fan, tuple(data["phi"]))
            bdiv = BDivisor.from_json(data["B"])
        except TypeError as exc:
            raise PreconditionError(f"malformed state JSON: {exc}") from exc
        return cls(fan, phi, bdiv)


def initial_state(model: LocalModel, bdiv: BDivisor) -> ReductionState:
    """The state on the undivided orthant; the trace is the pair itself."""
    if bdiv.n != model.n:
        raise PreconditionError("b-divisor dimension mismatch")
    if bdiv.pair_coeffs != model.pair.coeffs:
        raise PreconditionError(
            "the b-divisor trace must agree with the model coefficients"
        )
    fan = orthant_fan(model.n)
    phi = ModelDivisor(fan, model.pair.coeffs)
    state = ReductionState(fan, phi, bdiv)
    if not state.trace_consistent():
        raise InvariantViolation("initial trace disagrees with the b-divisor")
    return state


def state_witnesses(state: ReductionState) -> list:
    """All witnesses of the state, in lexicographic order of their vectors.

    Only listed non-ray deviations can witness: unlisted valuations default
    to 1 and rays carry the trace value itself.
    """
    devs = state.bdiv.deviations
    out = []
    for vec in sorted(devs.keys() - state.fan.ray_set):
        val = devs[vec]
        loc = state.fan.locate(vec)
        pb = pullback_at(state.phi, loc)
        if val < pb:
            support = tuple(idx for idx, x in zip(loc.ray_indices, loc.nums) if x > 0)
            w = sum(1 for idx in support if state.phi.ray_coeffs[idx] == 1)
            out.append(Witness(vec, val, pb, support, w, loc))
    return out


def state_weight(state: ReductionState) -> int:
    return max((wit.weight for wit in state.witnesses), default=-1)


# ---------------------------------------------------------------------------
# cuts


@record
class CutStep:
    weight_before: int
    sigmas: tuple
    rays_added: tuple
    theta: tuple  # (ray, value) pairs on the new fan

    def to_json(self) -> dict:
        # the writer renders a tuple as it renders a list
        return {
            "weight_before": self.weight_before,
            "sigmas": self.sigmas,
            "rays_added": self.rays_added,
            "theta": [{"ray": r, "value": format_rat(v)} for r, v in self.theta],
        }


def _theta_coeffs(state: ReductionState, located: dict, gaps: dict, rays) -> tuple:
    """min over sigma of the pullback coefficient relative to Y_sigma.

    Y_sigma is the star subdivision of the current fan at sigma.  It carries
    the current trace on the old rays and min(pb(sigma), B(sigma)) on sigma,
    where pb is the pullback coefficient relative to the current trace.  So
    it differs from the current trace only when B(sigma) < pb(sigma), and
    only by the excess e_sigma = pb(sigma) - B(sigma).

    Let C be an old cone containing sigma, with exact coordinates lam.  A ray
    r of C lies in the piece of Y_sigma spanned by sigma and the facet of C
    opposite the generator j that minimises lam_j(r) / lam_j(sigma) over the
    j with lam_j(sigma) > 0; that minimum mu_sigma(r) is the weight of the
    new ray in r.  Interpolating on the piece lowers the unclipped pullback
    coefficient at r by mu_sigma(r) * e_sigma, hence

        theta(r) = max(0, pb(r) - max over sigma of mu_sigma(r) * e_sigma).

    mu_sigma(r) is 0 when r lies in no cone containing sigma, and it does not
    depend on which containing cone is used: on a face shared with a cone
    that misses sigma, some lam_j(r) is 0 where lam_j(sigma) > 0.  No fan is
    built here.

    The arithmetic is on integers: in a cone C, r's and sigma's coordinates
    are numerators a_j and b_j over the same |det C|, sigma's computed once
    per cone, so mu_sigma(r) = min a_j / b_j is found by cross-multiplication.
    The drops are compared the same way, and theta(r) is the one Fraction
    built per ray.

    Only a sigma listed among B's deviations can have an excess.  Any other
    sigma is not a unit vector, since units are rays of every subdivision of
    the orthant and ``build_cut`` refuses rays, so B(sigma) = 1.  And
    pb(sigma) <= 1, as every trace coefficient is at most 1.  The excess of
    an unlisted sigma is therefore never positive, and it is not computed.

    ``located`` maps each sigma, in order, to a location in a maximal cone
    of the current fan that contains it, as ``build_cut`` checked it: its
    chart cone when the driver handed it over, else its ``Fan.locate``
    result.  ``gaps`` maps each sigma to its ``pullback_gap`` at that
    location, which ``build_cut`` computed for its refusal.  A ray of
    ``rays`` that is a sigma reads its location and gap there; every other
    ray is located here.  Where a sigma lies on a face of
    several cones, theta does not depend on which of them holds its
    location: pb(sigma) is the same in each, and so is mu_sigma(r) above.
    """
    excess = []
    for vec in located:
        if vec not in state.bdiv.deviations:
            continue
        # gaps[vec] holds the same pullback; this call stays only because
        # bench/test_bench.py requires its span on reduce_cut
        e = relative_pullback_coeff(state.phi, vec) - state.value(vec)
        if e > 0:
            excess.append((vec, e))
    in_cone = {}  # cone C -> (b, e numerator, e denominator) per sigma in C
    out = []
    for r in rays:
        loc = located.get(r) or state.fan.locate(r)
        gap, scale = gaps.get(r) or pullback_gap(state.phi, loc)
        if gap <= 0:
            out.append(Fraction(0))
            continue
        drops = in_cone.get(loc.ray_indices)
        if drops is None:
            drops = in_cone[loc.ray_indices] = []
            for vec, e in excess:
                b = loc.cone.coords(vec)
                if b is not None:
                    drops.append((b, e.numerator, e.denominator))
        # the largest drop mu * e as top / bottom (0 / 1 when nothing drops)
        top, bottom = 0, 1
        for b, e_num, e_den in drops:
            a_min, b_min = None, None
            for a_j, b_j in zip(loc.nums, b):
                if b_j and (a_min is None or a_j * b_min < a_min * b_j):
                    a_min, b_min = a_j, b_j
            t, u = a_min * e_num, b_min * e_den
            if t * bottom > top * u:
                top, bottom = t, u
        # theta = gap / scale - top / bottom, clipped at 0
        num = gap * bottom - top * scale
        out.append(Fraction(num, scale * bottom) if num > 0 else Fraction(0))
    return tuple(out)


# refinement rounds allowed in one cut; each round splits every cone holding
# a witness that straddles a piece, by one of finitely many hyperplanes
_SPLIT_ROUND_CAP = 64


def _piece_splits(state: ReductionState, sig, cut: ReductionState) -> list:
    """Points splitting the cones of the cut that hold a witness across a piece.

    In an old cone C containing sigma, with sigma's coordinates b, the piece
    of Y_sigma spanned by sigma and the facet opposite j is where j attains
    min lam_j / b_j over the j with b_j > 0; the trace of Y_sigma is linear on
    each piece.  A cone D of the cut's fan inside C lies in one piece when one
    j attains that minimum at all of D's rays.  When D holds a witness of the
    cut whose weight is not below the state's, and lies in no piece, its
    edges are split where they cross a hyperplane separating its rays
    (``_straddle_points``).

    Once no such witness lies in such a cone, the pullback there is at most
    the pullback relative to each Y_sigma, since the trace is at most theta,
    the ray-wise minimum of those, and each is linear on the witness's cone;
    so the witness either stops being one or moves to a centre of lower
    weight.  Cuts that already lower the weight get no split, so their fans
    cross the walls of Y_sigma only away from the witnesses that matter.
    """
    witnesses = cut.witnesses
    if not witnesses:
        return []
    top = state_weight(state)
    homes = []  # (old cone, sigma's numerators, their support)
    for vec in sig:
        for cone in state.fan.max_cones:
            b = cone.coords(vec)
            if b is not None:
                homes.append((cone, b, [j for j, x in enumerate(b) if x]))
    fan = cut.fan
    points = set()
    for wit in witnesses:
        if wit.weight < top:
            continue
        idx = wit.loc.ray_indices
        for cone, b, supp in homes:
            nums = [cone.coords(fan.rays[i]) for i in idx]
            if None not in nums:
                points.update(_straddle_points(fan, idx, nums, b, supp))
    return sorted(points)


def _straddle_points(fan: Fan, idx, nums, b, supp) -> list:
    """Where the edges of cone idx cross a hyperplane between two pieces.

    With the argmin sets of the rays' coordinates nums, the cone lies in one
    piece when the sets meet.  Otherwise two indices j, k attaining the
    minimum at some ray leave rays strictly on both sides of the hyperplane
    lam_j b_k = lam_k b_j: were every such pair on one side, the least of
    them would attain the minimum at every ray.  The coordinates are
    numerators over one positive |det|, so every comparison is on integers.
    """
    argmins = []
    for a in nums:
        best = supp[0]
        for j in supp[1:]:
            if a[j] * b[best] < a[best] * b[j]:
                best = j
        argmins.append({j for j in supp if a[j] * b[best] == a[best] * b[j]})
    if set.intersection(*argmins):
        return []
    touched = sorted(set.union(*argmins))
    for pos, j in enumerate(touched):
        for k in touched[pos + 1 :]:
            h = [a[j] * b[k] - a[k] * b[j] for a in nums]
            if min(h) < 0 < max(h):
                return [
                    primitive_part(tuple(
                        h[q] * x - h[p] * y
                        for x, y in zip(fan.rays[idx[p]], fan.rays[idx[q]])
                    ))
                    for p in range(len(idx))
                    for q in range(len(idx))
                    if h[p] < 0 < h[q]
                ]
    raise InvariantViolation(f"cone {idx} straddles a piece along no hyperplane")


def _cut_state(state: ReductionState, located: dict, gaps: dict, new_fan: Fan) -> tuple:
    """The state on new_fan with trace min(theta, B), and theta itself.

    The minimum is taken only at the rays B lists as deviations and at the
    unit rays.  At every other ray B is 1, and theta is at most gap / scale
    <= 1, so the trace there is theta itself, the value ``min`` returns.
    """
    rays = new_fan.rays
    theta = _theta_coeffs(state, located, gaps, rays)
    listed = state.bdiv.deviations
    coeffs = [min(t, listed[r]) if r in listed else t for t, r in zip(theta, rays)]
    n = new_fan.n
    units = [tuple([int(j == i) for j in range(n)]) for i in range(n)]
    for u, c in zip(units, state.bdiv.pair_coeffs):
        if u in new_fan.ray_set:
            i = rays.index(u)
            coeffs[i] = min(coeffs[i], c)
    new_phi_coeffs = tuple(coeffs)
    # fan rays are valuations and every coefficient lies in [0, 1]: theta
    # is clipped to [0, pb] and B's values are in [0, 1].  Every ray but
    # the unit vectors becomes a deviation; no deviation is a unit vector.
    devs = dict(listed)
    devs.update(zip(rays, new_phi_coeffs))
    for u in units:
        devs.pop(u, None)
    new_bdiv = trusted(BDivisor, pair_coeffs=state.bdiv.pair_coeffs, deviations=devs)
    new_phi = trusted(ModelDivisor, fan=new_fan, ray_coeffs=new_phi_coeffs)
    new_state = ReductionState(new_fan, new_phi, new_bdiv)
    if not new_state.trace_consistent():
        raise InvariantViolation("cut produced an inconsistent trace")
    return new_state, theta


def build_cut(state: ReductionState, sigmas) -> tuple:
    """One cut: extract the given valuations and meet the traces.

    For each sigma, the one-ray extraction Y_sigma carries the ray-wise
    minimum of the pullback trace and B; the new trace on the refined smooth
    fan is the minimum over sigma of the pullback coefficients relative to
    those divisors, met with B.  The fan is split further at cones that hold
    a witness of the state's weight or more across two pieces of some Y_sigma
    (``_piece_splits``).  Every sigma must have positive pullback coefficient
    and must not already be a divisor of the model.

    Validation happens where the sigmas enter.  ``sigmas`` is either a list
    of valuations, each validated here and located in the current fan once,
    or, from the driver, a dict mapping each valuation to its location in a
    maximal cone of the current fan that contains it (a ``BarycentricResult``
    whose numerators are its coordinates there).  The driver's valuations
    are primitive vectors of the orthant built from chart coordinates, so
    they are not validated or located again.  Either way the two refusals
    are integer checks on the location: a primitive vector with one nonzero
    coordinate is that generator, a ray, and the pullback gap must be
    positive.  ``_theta_coeffs`` reads each sigma's location and gap for
    its new ray in every split round instead of finding them again.
    """
    if isinstance(sigmas, dict):
        located = sigmas
    else:
        located = {}
        for s in sigmas:
            vec = valuation(s)
            if vec not in located:
                located[vec] = state.fan.locate(vec)
    gaps = {}
    for vec, loc in located.items():
        if loc.nums.count(0) == len(loc.nums) - 1:
            raise PreconditionError(f"{vec} is already a divisor on the model")
        gaps[vec] = pullback_gap(state.phi, loc)
        if gaps[vec][0] <= 0:
            raise PreconditionError(
                f"cut valuation {vec} has zero pullback coefficient"
            )
    sig = list(located)
    if not sig:
        raise PreconditionError("a cut needs at least one valuation")

    # the cut valuations are primitive, and so are the split points
    new_fan = insert_rays(state.fan, sig)
    for _ in range(_SPLIT_ROUND_CAP):
        new_state, theta = _cut_state(state, located, gaps, new_fan)
        splits = _piece_splits(state, sig, new_state)
        if not splits:
            break
        new_fan = insert_rays(new_fan, splits)
    else:
        raise InvariantViolation("a witness still straddles a piece of the cut")
    rays_added = tuple(r for r in new_fan.rays if r not in state.fan.ray_set)
    step = CutStep(
        weight_before=0,  # the driver records the measured weight
        sigmas=tuple(sig),
        rays_added=rays_added,
        theta=tuple(zip(new_fan.rays, theta)),
    )
    return new_state, step


def _chart_model(state: ReductionState, loc) -> tuple:
    """Unimodular chart at a maximal cone: local model, b-divisor, order.

    ``loc`` is a location in the cone.  The chart coordinates are the
    cone's generators (a lattice basis since the fan is smooth), permuted so
    coefficient-one components come last: chart coordinate j is the
    generator at position order[j] of the cone's key.  Deviations inside the
    cone map to their coordinates, integers since |det| = 1.  Nothing is
    validated again: the coefficients are trace values, and a deviation that
    is not a ray has primitive coordinates, nonnegative in the cone and not a
    unit vector, since a unit vector there is a generator.
    """
    cone, idx = loc.cone, loc.ray_indices
    coeffs = tuple(state.phi.ray_coeffs[i] for i in idx)
    order = sorted(range(len(idx)), key=lambda j: (coeffs[j] == 1, j))
    if abs(cone.det) != 1:
        basis = tuple(cone.gens[j] for j in order)
        raise InvariantViolation(f"chart cone {basis} is not smooth")
    chart_pair = trusted(LocalPair, coeffs=tuple(coeffs[j] for j in order))
    devs = {}
    deviations = state.bdiv.deviations
    for vec in deviations.keys() - state.fan.ray_set:
        nums = cone.coords(vec)
        if nums is not None:
            devs[tuple([nums[j] for j in order])] = deviations[vec]
    model = trusted(LocalModel, pair=chart_pair)
    chart_bdiv = trusted(BDivisor, pair_coeffs=chart_pair.coeffs, deviations=devs)
    return model, chart_bdiv, order


def _chart_sigmas(state: ReductionState, loc) -> dict:
    """Cut valuations for the chart at loc's cone, each mapped to its location.

    Each valuation is mapped back to ambient coordinates.  The cone is
    unimodular, so its chart coordinates, put back in the order of the
    cone's key, are its ``Fan.locate`` numerators in that cone (over
    |det| = 1); they become its location there, in the form ``build_cut``
    takes from the driver.
    """
    model, chart_bdiv, order = _chart_model(state, loc)
    prefixes = positive_pullback_prefixes(model)
    if model.w == 0:
        # the valuations with positive pullback coefficient are the primitive
        # prefixes other than 0 and the units (sum > 1); multiples reduce to
        # them and units are divisors
        chart_sigmas = [f for f in prefixes if sum(f) > 1 and gcd(*f) == 1]
    else:
        chart_sigmas = []
        for f in prefixes:
            sigma = pick_fiber_minimizer(model, chart_bdiv, f)
            if unit_index(sigma) is not None:
                continue
            chart_sigmas.append(sigma)
    cone, idx = loc.cone, loc.ray_indices
    position = [order.index(k) for k in range(len(order))]
    columns = tuple(zip(*cone.gens))
    out = {}
    for sigma in chart_sigmas:
        nums = tuple(map(sigma.__getitem__, position))
        ambient = tuple([sum(map(mul, col, nums)) for col in columns])
        out[ambient] = BarycentricResult(cone, idx, nums)
    return out


@record
class ReductionTrace:
    initial_weight: int
    steps: tuple
    final_state: ReductionState
    terminated_weight: int

    def to_json(self) -> dict:
        return {
            "initial_weight": self.initial_weight,
            "steps": [s.to_json() for s in self.steps],
            "final": self.final_state.to_json(),
            "terminated_weight": self.terminated_weight,
        }


def run_reduction(model: LocalModel, bdiv: BDivisor) -> ReductionTrace:
    """Iterate cuts until no witness remains (weight -1).

    Each round gathers the charts (maximal cones) containing a witness,
    merges their cut valuations, and applies one cut.  The weight must
    strictly decrease every round; a failure to do so is an internal
    invariant breach, never silently ignored.

    The model and b-divisor are validated where they were built; the cut
    valuations are handed to ``build_cut`` with their chart locations, so
    the cut checks them without validating or locating them again.  The
    witnesses of each new state are the ones the cut found for its piece
    splits (``ReductionState.witnesses``), and each names its chart by the
    location it was found at.
    """
    state = initial_state(model, bdiv)
    weight = state_weight(state)
    initial = weight
    steps = []
    rounds = 0
    while weight >= 0:
        rounds += 1
        if rounds > model.n + 2:
            raise InvariantViolation("reduction exceeded the round cap")
        located = {}
        seen_charts = set()
        for wit in state.witnesses:
            if wit.loc.ray_indices in seen_charts:
                continue
            seen_charts.add(wit.loc.ray_indices)
            for sigma, at in _chart_sigmas(state, wit.loc).items():
                located.setdefault(sigma, at)
        if not located:
            raise InvariantViolation("witnesses present but no cut valuation found")
        state, step = build_cut(state, located)
        steps.append(CutStep(weight, step.sigmas, step.rays_added, step.theta))
        new_weight = state_weight(state)
        if new_weight >= weight:
            raise InvariantViolation(
                f"cut failed to decrease the weight ({weight} -> {new_weight})"
            )
        weight = new_weight
    return ReductionTrace(
        initial_weight=initial,
        steps=tuple(steps),
        final_state=state,
        terminated_weight=weight,
    )


# ---------------------------------------------------------------------------
# verification


@record
class VerifyReport:
    ok: bool
    box: int
    checked: int
    violation: tuple | None  # (vector, pullback, b_value)

    def to_json(self) -> dict:
        out = {"ok": self.ok, "box": self.box, "checked": self.checked}
        if self.violation is not None:
            vec, pb, bv = self.violation
            out["violation"] = {
                "v": list(vec),
                "pullback": format_rat(pb),
                "B": format_rat(bv),
            }
        return out


def _mobius(m: int) -> list:
    """mu(0..m) by a sieve (mu(0) is unused)."""
    mu = [1] * (m + 1)
    composite = bytearray(m + 1)
    for p in range(2, m + 1):
        if composite[p]:
            continue
        for k in range(p, m + 1, p):
            composite[k] = 1
            mu[k] = -mu[k]
        for k in range(p * p, m + 1, p * p):
            mu[k] = 0
    return mu


def primitive_box_count(n: int, box: int, upto=None) -> int:
    """Primitive nonzero vectors u of [0, box]^n, only u <=_lex upto if given.

    Mobius inversion over the gcd: sum over d of mu(d) times the number of
    nonzero such u with every entry a multiple of d.  Those are counted by
    the first position k where u leaves upto (u_k < upto_k, any tail), plus
    u = upto itself.
    """
    upto = upto or (box,) * n
    mu = _mobius(box)
    total = 0
    for d in range(1, box + 1):
        if mu[d] == 0:
            continue
        side = box // d + 1  # multiples of d in [0, box]
        count = 0
        for k, b in enumerate(upto):
            if b > 0:
                count += (min(b - 1, box) // d + 1) * side ** (n - k - 1)
            if b > box or b % d:
                break
        else:
            count += 1
        total += mu[d] * (count - 1)  # the zero vector is a multiple of every d
    return total


def check_box(box: int) -> None:
    """Refuse a box outside 1..MAX_BOX, the range the verifier counts."""
    if box < 1:
        raise PreconditionError("box must be >= 1")
    if box > MAX_BOX:
        raise PreconditionError(f"box {box} exceeds the cap MAX_BOX = {MAX_BOX}")


def verify_reduction(state: ReductionState, box: int) -> VerifyReport:
    """Check pullback(phi) <= B on every valuation, reporting a box count.

    Only fan rays and listed deviations can violate the bound, so only they
    are evaluated.  Proof: the fan is first checked to subdivide the orthant
    (``Fan.subdivision_defect``), so every unit vector is a ray.  Any other
    valuation v that is not a listed deviation has B(v) = 1, while
    pullback(v) = max(0, 1 - sum lam_j (1 - g_j)) <= 1 since lam_j >= 0 and
    every trace coefficient g_j <= 1.

    The report matches a lexicographic scan of the fan rays, the listed
    deviations and the primitive vectors with entries <= box, stopped at the
    first violation: ``checked`` counts those candidates up to and including
    it (all of them when none fails), the box part by Mobius inversion.

    At a fan ray r_i the pullback is its own trace coefficient g_i.  The
    subdivision check has found that every ray spans a cone, and in such a
    cone r_i has coordinates e_i, so the pullback is max(0, 1 - (1 - g_i)) =
    g_i, which is >= 0; this is the location ``Fan.locate`` reads from its
    ray table.  So a ray is checked by comparing g_i = a / b with B(r_i) =
    p / q as integers, a * q > p * b, and only the listed deviations that
    are not rays are located.  There, with the pullback max(0, gap / scale)
    from ``pullback_gap``, the bound fails exactly when gap * q > p * scale.
    Fractions are built only for a violation.
    """
    check_box(box)
    defect = state.fan.subdivision_defect
    if defect is not None:
        raise InvariantViolation(f"the fan does not subdivide the orthant: {defect}")
    fan = state.fan
    ray_index = fan.ray_index
    coeffs = state.phi.ray_coeffs
    listed = sorted(set(fan.rays).union(state.bdiv.deviations))
    outside = [vec for vec in listed if max(vec) > box]
    for vec in listed:
        bv = state.value(vec)
        i = ray_index.get(vec)
        if i is not None:
            pb = coeffs[i]
            if pb.numerator * bv.denominator <= bv.numerator * pb.denominator:
                continue
        else:
            gap, scale = pullback_gap(state.phi, fan.locate(vec))
            if gap * bv.denominator <= bv.numerator * scale:
                continue
            pb = Fraction(gap, scale)
        checked = primitive_box_count(fan.n, box, vec) + sum(
            1 for u in outside if u <= vec
        )
        return VerifyReport(ok=False, box=box, checked=checked, violation=(vec, pb, bv))
    checked = primitive_box_count(fan.n, box) + len(outside)
    return VerifyReport(ok=True, box=box, checked=checked, violation=None)
