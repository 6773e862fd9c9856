"""Weight-descent reduction of a default-one b-divisor over a local model.

Given a local SNC pair and a b-divisor B whose trace on the model is the
pair itself, a *witness* is a valuation whose B-value is strictly below its
pullback coefficient.  The *weight* of the state is -1 when no witness
exists, and otherwise the maximal number of coefficient-one boundary
components through the centre of a witness.

A *cut* replaces the model by a smooth refinement extracting a chosen set of
valuations (all with positive pullback coefficient), re-traces the pullback
through each one-ray extraction, takes the ray-wise minimum of those traces,
and meets the result with B.  The driver cuts the undivided orthant, where
the initial state lives, at valuations it chooses from the model and B's
deviations (``_cut_valuations``):

* when no coefficient is 1, every lattice vector with positive pullback
  coefficient (other than the rays) is extracted;
* otherwise, for every prefix f over the sub-one coordinates with positive
  pullback coefficient, every listed deviation of the fibre {(f, anything)}
  with value below 1 is extracted, or a default representative of the fibre
  when it lists none.

Either way every witness is extracted.  A witness is a listed deviation and
no ray, of positive pullback; so a klt model extracts it, and otherwise its
prefix is one of those walked and its B-value, below its pullback, is below
1.  One cut then ends the descent at weight -1, where the pullback of the
final trace is bounded by B everywhere.  Proof, with the log discrepancy
a = 1 - trace, which is linear on the orthant:

* at a ray r of the cut fan theta(r) is at most the old pullback pb(r)
  (``_theta_coeffs``); so where theta(r) > 0 the new a(r) = 1 -
  min(theta(r), B(r)) is at least 1 - pb(r), the old a(r), and where theta
  is clipped to 0 the new a(r) is 1;
* the cut fan is smooth and refines the old one, so a listed deviation v is
  sum mu_r r with integers mu_r >= 0 over the rays of a new cone, which
  lies in the orthant, where the old a is linear;
* if mu_r >= 1 at a clipped ray, the new pullback at v is
  max(0, 1 - sum mu_r a(r)) = 0; otherwise sum mu_r a(r) is at least the
  old a(v), and the new pullback at v is at most the old one;
* B keeps its value at a v that is no ray of the cut fan, so a deviation
  that was not a witness does not become one; every witness becomes a ray,
  whose trace min(theta, B) is at most B; and an unlisted valuation has
  B-value 1, which no pullback exceeds.

The driver still checks that the cut leaves no witness, an invariant
breach if one is left, and the ``verify_reduction`` checker confirms the
bound at every valuation, by checking that the fan subdivides the orthant
and evaluating the fan rays and listed deviations, the only valuations
where it can fail.

With the default-one representation the witness search is exact: an
unlisted, non-divisorial valuation has B-value 1, which no pullback
coefficient exceeds, so only listed deviations can witness.  The weight is
computed in one place, ``state_witnesses``: the ``weight`` command reads the
witnesses of the initial state, as ``run_reduction`` does for its initial
weight.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul

from .exact import (
    InvariantViolation,
    PreconditionError,
    complement_weights,
    format_rat,
    record,
    trusted,
)
from .fans import Fan, insert_rays, orthant_fan
from .logpairs import (
    BDivisor,
    LocalPair,
    ModelDivisor,
    pullback_at,
    pullback_gap,
    relative_pullback_coeff,
    unit_index,
)

@record
class LocalModel:
    """A local pair, its coordinates split by whether the coefficient is 1.

    The reduction does not depend on how the components are numbered, so
    they keep the input's order; ``sub_one`` and ``ones`` list the
    coordinates with coefficient below 1 and equal to 1, each increasing.
    """

    pair: LocalPair

    @property
    def n(self) -> int:
        return self.pair.n

    @cached_property
    def sub_one(self) -> tuple:
        return tuple(i for i, c in enumerate(self.pair.coeffs) if c < 1)

    @cached_property
    def ones(self) -> tuple:
        return tuple(i for i, c in enumerate(self.pair.coeffs) if c == 1)

    @property
    def s(self) -> int:
        return len(self.sub_one)

    @property
    def w(self) -> int:
        return len(self.ones)

    @cached_property
    def prefix_weights(self) -> tuple:
        """(w, den): the weights 1 - c_i of the sub-one coordinates over den.

        Every w_i is positive, since each c_i is below 1.
        """
        return complement_weights([self.pair.coeffs[i] for i in self.sub_one])


def positive_pullback_prefixes(model: LocalModel) -> list:
    """All v in N^s with sum v_i (1 - c_i) < 1, sorted lexicographically.

    The i ranges over ``model.sub_one``, in order.  These are exactly the
    sub-one coordinate prefixes of valuations with positive pullback
    coefficient; the zero vector is included.  With the
    weights as integers w_i > 0 over one denominator D, a depth-first walk
    extends each prefix by every entry e with e * w_i below the budget D
    minus the prefix's weight, in increasing order, so the output comes
    sorted.  The entries of the last coordinate are the e < budget / w_i,
    the first ceil(budget / w_i) naturals, added in one step.
    """
    w, den = model.prefix_weights
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
    """A valuation whose B-value lies strictly below its pullback coefficient."""

    vec: tuple
    b_value: Fraction
    pullback: Fraction
    stratum: tuple
    weight: int

    def to_json(self) -> dict:
        return {
            "v": list(self.vec),
            "B": format_rat(self.b_value),
            "pullback": format_rat(self.pullback),
            "stratum": list(self.stratum),
            "weight": self.weight,
        }


def _fiber_valuations(model: LocalModel, devs: dict) -> list:
    """The cut valuations of a model with a coefficient-one component.

    ``devs`` maps B's listed deviations, none of them a unit vector, to
    their values.  The fibre of a prefix f holds the valuations whose
    sub-one coordinates, in the order of ``model.sub_one``, are f.  For each
    f of ``positive_pullback_prefixes(model)``, in order, the fibre's listed
    deviations with value below 1 come in lexicographic order.  A fibre that
    lists none gives its representative with f at the sub-one coordinates
    and 1 elsewhere, where B takes its infimum 1 over the fibre; with a
    coefficient one that representative is primitive, and it is left out
    when it is a unit vector, a divisor of the model already.
    """
    sub = model.sub_one
    fibres = {f: [] for f in positive_pullback_prefixes(model)}
    for vec in sorted(devs):
        listed = fibres.get(tuple([vec[i] for i in sub]))
        if listed is not None and devs[vec] < 1:
            listed.append(vec)
    out = []
    for f, listed in fibres.items():
        if not listed:
            at = dict(zip(sub, f))
            rep = tuple([at.get(i, 1) for i in range(model.n)])
            listed = [rep] if unit_index(rep) is None else []
        out.extend(listed)
    return out


def _cut_valuations(model: LocalModel, bdiv: BDivisor) -> list:
    """The valuations the driver cuts the orthant at (module docstring).

    On a klt model they are the primitive prefixes other than 0 and the
    units (sum > 1): multiples reduce to them and units are divisors.
    """
    if not model.ones:
        return [f for f in positive_pullback_prefixes(model) if sum(f) > 1 and gcd(*f) == 1]
    return _fiber_valuations(model, bdiv.deviations)


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

    @cached_property
    def witnesses(self) -> list:
        """``state_witnesses(self)``, found once per state.

        The driver reads the initial state's list for its weight, which
        ``build_cut`` records in its step, and the cut state's to check that
        none is left.
        """
        return state_witnesses(self)

    def to_json(self, fmt=format_rat) -> dict:
        return {
            "fan": self.fan.to_json(),
            "phi": [fmt(c) for c in self.phi.ray_coeffs],
            "B": self.bdiv.to_json(fmt),
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
    """The state on the undivided orthant; the trace is the pair itself.

    ``ReductionState`` checks B's dimension, before B's pair is compared.
    """
    fan = orthant_fan(model.n)
    state = ReductionState(fan, ModelDivisor(fan, model.pair.coeffs), bdiv)
    if bdiv.pair_coeffs != model.pair.coeffs:
        raise PreconditionError(
            "the b-divisor trace must agree with the model coefficients"
        )
    # the trace agrees with B on every ray: the rays are the units, never
    # deviation keys, where B takes the pair coefficients checked above
    return state


def state_witnesses(state: ReductionState) -> list:
    """All witnesses of the state, in lexicographic order of their vectors.

    Only listed non-ray deviations can witness: unlisted valuations default
    to 1 and rays carry the trace value itself.
    """
    devs = state.bdiv.deviations
    out = []
    for vec in sorted(devs.keys() - state.fan.ray_index.keys()):
        val = devs[vec]
        loc = state.fan.locate(vec)
        pb = pullback_at(state.phi, loc)
        if val < pb:
            support = tuple(idx for idx, x in zip(loc.ray_indices, loc.nums) if x > 0)
            w = sum(1 for idx in support if state.phi.ray_coeffs[idx] == 1)
            out.append(Witness(vec, val, pb, support, w))
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

    def to_json(self, fmt=format_rat) -> dict:
        # the writer renders a tuple as it renders a list
        return {
            "weight_before": self.weight_before,
            "sigmas": self.sigmas,
            "rays_added": self.rays_added,
            "theta": [{"ray": r, "value": fmt(v)} for r, v in self.theta],
        }


def _theta_coeffs(state: ReductionState, sigmas, rays) -> tuple:
    """min over sigma of the pullback coefficient relative to Y_sigma.

    Y_sigma is the star subdivision of the orthant at sigma.  It carries the
    current trace on the unit rays and min(pb(sigma), B(sigma)) on sigma,
    where pb is the pullback coefficient relative to the current trace.  So
    it differs from the current trace only when B(sigma) < pb(sigma), and
    only by the excess e_sigma = pb(sigma) - B(sigma).

    On the orthant every vector is its own coordinates.  With the weights
    1 - g_j = w_j / D of ``state.phi.weights``, pb(r) = max(0, (D - sum r_j
    w_j) / D).  A ray r lies in the piece of Y_sigma spanned by sigma and the
    facet opposite the e_j that minimises r_j / sigma_j over the j with
    sigma_j > 0; that minimum mu_sigma(r) is the weight of the new ray in r.
    Interpolating on the piece lowers the unclipped pullback coefficient at
    r by mu_sigma(r) * e_sigma, hence

        theta(r) = max(0, pb(r) - max over sigma of mu_sigma(r) * e_sigma).

    No fan is built here.  The arithmetic is on integers: mu_sigma(r) =
    min r_j / sigma_j is found by cross-multiplication, the drops are
    compared the same way, and theta(r) is the one Fraction built per ray.

    Only a sigma listed among B's deviations can have an excess.  Any other
    sigma is not a unit vector, since units are rays of every subdivision of
    the orthant and ``build_cut`` refuses rays, so B(sigma) = 1.  And
    pb(sigma) <= 1, as every trace coefficient is at most 1.  The excess of
    an unlisted sigma is therefore never positive, and it is not computed.
    """
    excess = []
    for vec in sigmas:
        if vec not in state.bdiv.deviations:
            continue
        # build_cut checked this pullback in integers; the call stays only
        # because bench/test_bench.py requires its span on reduce_cut
        e = relative_pullback_coeff(state.phi, vec) - state.bdiv.value(vec)
        if e > 0:
            excess.append((vec, e.numerator, e.denominator))
    w, den = state.phi.weights
    out = []
    for r in rays:
        gap = den - sum(map(mul, r, w))
        if gap <= 0:
            out.append(Fraction(0))
            continue
        # the largest drop mu * e as top / bottom (0 / 1 when nothing drops)
        top, bottom = 0, 1
        for b, e_num, e_den in excess:
            a_min, b_min = None, None
            for a_j, b_j in zip(r, b):
                if b_j and (a_min is None or a_j * b_min < a_min * b_j):
                    a_min, b_min = a_j, b_j
            t, u = a_min * e_num, b_min * e_den
            if t * bottom > top * u:
                top, bottom = t, u
        # theta = gap / den - top / bottom, clipped at 0
        num = gap * bottom - top * den
        out.append(Fraction(num, den * bottom) if num > 0 else Fraction(0))
    return tuple(out)


def _cut_state(state: ReductionState, sigmas, new_fan: Fan) -> tuple:
    """The state on new_fan with trace min(theta, B), and theta itself.

    The minimum is taken only at the rays B lists as deviations.  At every
    other ray that is not a unit vector B is 1, and theta is at most
    pb <= 1, so the trace there is theta itself, the value ``min`` returns.
    At a unit ray e_i theta is its old trace coefficient: mu_sigma(e_i) (see
    ``_theta_coeffs``) is positive only when sigma's support is {i}, making
    sigma the ray e_i, which ``build_cut`` refuses.  The old trace agrees
    with B on its rays, so at a unit ray theta is B's value there, the
    pair's coefficient.  ``trace_consistent`` checks the outcome.
    """
    rays = new_fan.rays
    theta = _theta_coeffs(state, sigmas, rays)
    listed = state.bdiv.deviations
    new_phi_coeffs = tuple(
        min(t, listed[r]) if r in listed else t for t, r in zip(theta, rays)
    )
    # fan rays are valuations and every coefficient lies in [0, 1]: theta
    # is clipped to [0, pb] and B's values are in [0, 1].  Every ray but
    # the unit vectors becomes a deviation; no deviation is a unit vector.
    devs = dict(listed)
    devs.update(zip(rays, new_phi_coeffs))
    n = new_fan.n
    for i in range(n):
        devs.pop(tuple([int(j == i) for j in range(n)]), None)
    new_bdiv = trusted(BDivisor, pair_coeffs=state.bdiv.pair_coeffs, deviations=devs)
    new_phi = trusted(ModelDivisor, fan=new_fan, ray_coeffs=new_phi_coeffs)
    new_state = ReductionState(new_fan, new_phi, new_bdiv)
    if not new_state.trace_consistent():
        raise InvariantViolation("cut produced an inconsistent trace")
    return new_state, theta


def build_cut(state: ReductionState, sigmas) -> tuple:
    """One cut of the orthant: extract the given valuations and meet the traces.

    For each sigma, the one-ray extraction Y_sigma carries the ray-wise
    minimum of the pullback trace and B; the new trace on the refined smooth
    fan is the minimum over sigma of the pullback coefficients relative to
    those divisors, met with B.  Every sigma must have positive pullback
    coefficient and must not already be a divisor of the model.

    The state must lie on the undivided orthant, as ``initial_state``
    builds it: ``_theta_coeffs`` reads each vector as its own coordinates,
    which on a refined fan would give false coefficients, so a state on any
    other fan is refused.  The sigmas are primitive vectors of the orthant,
    tuples, and are not validated again.  The two refusals are integer
    checks on the vector: one with a single nonzero coordinate is a unit
    vector, a ray, and the pullback gap D - sum sigma_j w_j must be
    positive.  The step records the state's weight, read from its witnesses,
    which the driver has found already.
    """
    n = state.fan.n
    if state.fan != orthant_fan(n):
        raise PreconditionError("a cut needs a state on the undivided orthant")
    w, den = state.phi.weights
    sig = tuple(sigmas)
    for vec in sig:
        if vec.count(0) == n - 1:
            raise PreconditionError(f"{vec} is already a divisor on the model")
        if sum(map(mul, vec, w)) >= den:
            raise PreconditionError(
                f"cut valuation {vec} has zero pullback coefficient"
            )
    if not sig:
        raise PreconditionError("a cut needs at least one valuation")

    new_fan = insert_rays(state.fan, sig)
    new_state, theta = _cut_state(state, sig, new_fan)
    step = CutStep(
        weight_before=state_weight(state),
        sigmas=sig,
        # insert_rays appends every new ray after the old ones
        rays_added=new_fan.rays[n:],
        theta=tuple(zip(new_fan.rays, theta)),
    )
    return new_state, step


@record
class ReductionTrace:
    initial_weight: int
    steps: tuple
    final_state: ReductionState
    terminated_weight: int

    def to_json(self) -> dict:
        """The trace as JSON, each value of the final trace formatted once.

        The last step's theta, the final phi and the final B's values at the
        rays are mostly the same ``Fraction`` objects (``_cut_state``), so
        phi's texts are looked up by object identity, sound while this trace
        holds every object asked about; other values are formatted anew.
        """
        phi = self.final_state.phi.ray_coeffs
        texts = dict(zip(map(id, phi), map(format_rat, phi)))

        def fmt(x):
            return texts.get(id(x)) or format_rat(x)

        return {
            "initial_weight": self.initial_weight,
            "steps": [s.to_json(fmt) for s in self.steps],
            "final": self.final_state.to_json(fmt),
            "terminated_weight": self.terminated_weight,
        }


def run_reduction(model: LocalModel, bdiv: BDivisor) -> ReductionTrace:
    """Cut the orthant once, if there is a witness, and end at weight -1.

    The cut valuations come from the model and B's deviations
    (``_cut_valuations``) and are not validated again.  Every witness
    becomes a ray and no other valuation becomes one, so the cut leaves none
    (module docstring); a cut state with a witness is an internal invariant
    breach, never silently ignored.
    """
    state = initial_state(model, bdiv)
    weight = state_weight(state)
    steps = ()
    if weight >= 0:
        sigmas = _cut_valuations(model, bdiv)
        if not sigmas:
            raise InvariantViolation("witnesses present but no cut valuation found")
        state, step = build_cut(state, sigmas)
        steps = (step,)
        if state.witnesses:
            raise InvariantViolation(
                f"the cut left a witness at {state.witnesses[0].vec}"
            )
    return ReductionTrace(
        initial_weight=weight,
        steps=steps,
        final_state=state,
        terminated_weight=-1,
    )


# ---------------------------------------------------------------------------
# verification


@record
class VerifyReport:
    ok: bool
    checked: int
    violation: tuple | None  # (vector, pullback, b_value)

    def to_json(self) -> dict:
        out = {"ok": self.ok, "checked": self.checked}
        if self.violation is not None:
            vec, pb, bv = self.violation
            out["violation"] = {
                "v": list(vec),
                "pullback": format_rat(pb),
                "B": format_rat(bv),
            }
        return out


def verify_reduction(state: ReductionState) -> VerifyReport:
    """Check pullback(phi) <= B on every valuation, reporting what it evaluated.

    Only fan rays and listed deviations can violate the bound, so only they
    are evaluated.  Proof: the fan is first checked to subdivide the orthant
    (``Fan.subdivision_defect``: on a surface one walk along the cones from
    (1, 0) to (0, 1), elsewhere the facet and volume test), so every unit
    vector is a ray.  Any other valuation v that is not a listed deviation
    has B(v) = 1, while pullback(v) = max(0, 1 - sum lam_j (1 - g_j)) <= 1
    since lam_j >= 0 and every trace coefficient g_j <= 1.

    The fan rays and listed deviations are evaluated in lexicographic order,
    stopping at the first violation: ``checked`` counts the vectors
    evaluated, up to and including it (all of them when none fails).

    At a fan ray r_i the pullback is its own trace coefficient g_i.  The
    subdivision check has found that every ray spans a cone, and in such a
    cone r_i has coordinates e_i, so the pullback is max(0, 1 - (1 - g_i)) =
    g_i, which is >= 0.  So a ray is checked by comparing g_i = a / b with
    B(r_i) = p / q as integers, a * q > p * b, and only the listed
    deviations that are not rays are located.  There, with the pullback
    max(0, gap / scale) from ``pullback_gap``, the bound fails exactly when
    gap * q > p * scale.  Fractions are built only for a violation.
    """
    defect = state.fan.subdivision_defect
    if defect is not None:
        raise InvariantViolation(f"the fan does not subdivide the orthant: {defect}")
    fan = state.fan
    ray_index = fan.ray_index
    coeffs = state.phi.ray_coeffs
    listed = sorted(set(fan.rays).union(state.bdiv.deviations))
    for checked, vec in enumerate(listed, 1):
        bv = state.bdiv.value(vec)
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
        return VerifyReport(ok=False, checked=checked, violation=(vec, pb, bv))
    return VerifyReport(ok=True, checked=len(listed), violation=None)
