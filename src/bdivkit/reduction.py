"""Weight-descent reduction of a default-one b-divisor over a local model.

Given a local SNC pair and a b-divisor B whose trace on the model is the
pair itself, a *witness* is a valuation whose B-value is strictly below its
pullback coefficient.  The *weight* of the state is -1 when no witness
exists, and otherwise the maximal number of coefficient-one boundary
components through the centre of a witness.

A *cut* replaces the model by a smooth refinement extracting a chosen set of
valuations (all with positive pullback coefficient), re-traces the pullback
through each one-ray extraction, takes the ray-wise minimum of those traces,
and meets the result with B.  The driver cuts the undivided orthant, whose
trace is the pair itself, at valuations it chooses from the pair's
coefficients, in the input's order, and B's deviations (``_cut_valuations``):

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

The driver checks its output once, with the ``verify_reduction`` checker,
an invariant breach if it fails: it confirms the bound at every valuation,
by checking that the fan subdivides the orthant and evaluating the fan rays
and listed deviations, the only valuations where it can fail.  A witness
left by the cut would be a listed non-ray deviation whose pullback exceeds
B, which is exactly what that evaluation refutes.

With the default-one representation the witness search is exact: an
unlisted, non-divisorial valuation has B-value 1, which no pullback
coefficient exceeds, so only listed deviations can witness.  The reduction
is a function of the pair and B alone, and so is everything it reads:
``witnesses(pair, bdiv)`` finds the witnesses, on integers over the pair's
weights, and is the one place that refuses a B that does not match the
pair; the ``weight`` command reads it, as ``run_reduction`` does, once, for
its initial weight, which it hands to ``build_cut`` for the step.  A
``ReductionState`` is what ``reduce`` prints and ``verify`` reads.
"""

from __future__ import annotations

from fractions import Fraction
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
    pullback_gap,
    relative_pullback_coeff,
    unit_index,
)

# a klt cut makes most prefixes rays, at a cost per ray that grows with the
# dimension; README times the largest model under the cap in each dimension
PREFIX_CAP = 10_000


def positive_pullback_prefixes(pair: LocalPair) -> list:
    """All v in N^s with sum v_i (1 - c_i) < 1, sorted lexicographically.

    The c_i are the pair's s coefficients below 1, in the input's order: the
    reduction does not depend on how the components are numbered.  These
    are exactly the sub-one coordinate prefixes of valuations with positive
    pullback coefficient; the zero vector is included.  With the
    weights as integers w_i > 0 over one denominator D, a depth-first walk
    extends each prefix by every entry e with e * w_i below the budget D
    minus the prefix's weight, the first ceil(budget / w_i) naturals, in
    increasing order, so the output comes sorted; the entries of the last
    coordinate are added in one step.  A pair with more than PREFIX_CAP
    prefixes is refused before they are listed.
    """
    w, den = complement_weights([c for c in pair.coeffs if c < 1])
    if not w:
        return [()]
    last = len(w) - 1
    out = []

    def walk(prefix, budget):
        step = w[len(prefix)]
        count = -(-budget // step)  # the entries e with e * step < budget
        if len(prefix) < last:
            for e in range(count):
                walk(prefix + (e,), budget - e * step)
        elif len(out) + count > PREFIX_CAP:
            raise PreconditionError(
                f"the model has more prefixes than the cap PREFIX_CAP = {PREFIX_CAP}")
        else:
            out.extend([prefix + (e,) for e in range(count)])

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


def _fiber_valuations(pair: LocalPair, devs: dict) -> list:
    """The cut valuations of a model with a coefficient-one component.

    ``devs`` maps B's listed deviations, none of them a unit vector, to
    their values.  The fibre of a prefix f holds the valuations whose
    sub-one coordinates, in increasing order, are f.  For each
    f of ``positive_pullback_prefixes(pair)``, in order, the fibre's listed
    deviations with value below 1 come in lexicographic order.  A fibre that
    lists none gives its representative with f at the sub-one coordinates
    and 1 elsewhere, where B takes its infimum 1 over the fibre; with a
    coefficient one that representative is primitive, and it is left out
    when it is a unit vector, a divisor of the model already.
    """
    sub = [i for i, c in enumerate(pair.coeffs) if c < 1]
    fibres = {f: [] for f in positive_pullback_prefixes(pair)}
    for vec in sorted(devs):
        listed = fibres.get(tuple([vec[i] for i in sub]))
        if listed is not None and devs[vec] < 1:
            listed.append(vec)
    out = []
    for f, listed in fibres.items():
        if not listed:
            at = dict(zip(sub, f))
            rep = tuple([at.get(i, 1) for i in range(pair.n)])
            listed = [rep] if unit_index(rep) is None else []
        out.extend(listed)
    return out


def _cut_valuations(pair: LocalPair, bdiv: BDivisor) -> list:
    """The valuations the driver cuts the orthant at (module docstring).

    Each is a primitive vector that is no unit vector and has positive
    pullback coefficient, which is what a cut needs: a unit vector is a
    divisor of the model already, and ``_theta_coeffs`` reads every sigma as
    a vector of positive pullback that is no ray.  On a klt pair they are
    the prefixes with sum > 1 and gcd 1: every prefix has positive
    pullback, sum > 1 rules out 0 and the units, and multiples reduce to
    their primitive part.  Otherwise they are B's keys, which ``BDivisor``
    checked primitive and never unit vectors, and fibre representatives,
    which have a coordinate equal to 1, so are primitive, and are dropped
    when they are unit vectors.  Either kind shares its prefix's positive
    pullback: its coefficient-one coordinates add 0 to sum v_j (1 - c_j).
    """
    if pair.is_klt:
        return [f for f in positive_pullback_prefixes(pair) if sum(f) > 1 and gcd(*f) == 1]
    return _fiber_valuations(pair, bdiv.deviations)


def witnesses(pair: LocalPair, bdiv: BDivisor) -> list:
    """All witnesses of the pair against B, in lexicographic order of their vectors.

    B's dimension is checked first, then that B takes the pair's
    coefficients on the unit vectors, where the trace is the pair itself.
    Only listed deviations can witness: unlisted valuations default to 1,
    and no deviation is a unit vector.  On the undivided orthant a vector is
    its own coordinates, so with the weights 1 - c_j = w_j / D of
    ``complement_weights`` the pullback of v is max(0, (D - sum v_j w_j) /
    D), the stratum is v's support, and the weight is the number of
    coefficient-one components in it.
    """
    if bdiv.n != pair.n:
        raise PreconditionError("b-divisor dimension mismatch")
    if bdiv.pair_coeffs != pair.coeffs:
        raise PreconditionError(
            "the b-divisor trace must agree with the model coefficients"
        )
    w, den = complement_weights(pair.coeffs)
    out = []
    for vec, val in sorted(bdiv.deviations.items()):
        gap = den - sum(map(mul, vec, w))
        # a pullback of 0 is never above a value in [0, 1]
        if gap > 0 and val < (pb := Fraction(gap, den)):
            support = tuple(i for i, e in enumerate(vec) if e)
            weight = sum(1 for i in support if pair.coeffs[i] == 1)
            out.append(Witness(vec, val, pb, support, weight))
    return out


# ---------------------------------------------------------------------------
# reduction states


@record
class ReductionState:
    """The boundary trace on a model, and the b-divisor rebased to it.

    What ``reduce`` prints as its final state and ``verify`` reads back.
    The model is the trace's fan.  Invariant: the b-divisor value at every
    fan ray equals the trace coefficient there (unit rays via pair values,
    others via deviations).
    """

    phi: ModelDivisor
    bdiv: BDivisor

    def __post_init__(self):
        if self.bdiv.n != self.phi.fan.n:
            raise PreconditionError("b-divisor dimension mismatch")

    @property
    def fan(self) -> Fan:
        return self.phi.fan

    def trace_consistent(self) -> bool:
        """Whether the b-divisor agrees with the trace on every fan ray.

        Holds for every state ``run_reduction`` produces; hand-built states
        fed to the verifier may break it on purpose.
        """
        return tuple(map(self.bdiv.value, self.fan.rays)) == self.phi.ray_coeffs

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
            phi = ModelDivisor(fan, data["phi"])
            bdiv = BDivisor.from_json(data["B"])
        except (KeyError, TypeError) as exc:
            raise PreconditionError(f"malformed state JSON: {exc}") from exc
        return cls(phi, bdiv)


def _orthant_state(pair: LocalPair, bdiv: BDivisor) -> ReductionState:
    """The state on the undivided orthant, built unchecked: its trace is the
    pair, which B takes on the unit rays once ``witnesses`` has matched them."""
    phi = trusted(ModelDivisor, fan=orthant_fan(pair.n), ray_coeffs=pair.coeffs)
    return trusted(ReductionState, phi=phi, bdiv=bdiv)


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
    the orthant and no cut valuation is a ray, so B(sigma) = 1.  And
    pb(sigma) <= 1, as every trace coefficient is at most 1.  The excess of
    an unlisted sigma is therefore never positive, and it is not computed.
    """
    excess = []
    for vec in sigmas:
        if vec not in state.bdiv.deviations:
            continue
        # _cut_valuations yields only positive pullbacks; the call stays
        # only because bench/test_bench.py requires its span on reduce_cut
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
    sigma the ray e_i, which no cut valuation is.  The old trace agrees
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
    new_state = ReductionState(new_phi, new_bdiv)
    if not new_state.trace_consistent():
        raise InvariantViolation("cut produced an inconsistent trace")
    return new_state, theta


def build_cut(pair: LocalPair, bdiv: BDivisor, weight: int) -> tuple:
    """The one cut of the orthant: extract the cut valuations and meet the traces.

    The valuations are ``_cut_valuations(pair, bdiv)``, each primitive, no
    ray and of positive pullback.  For each sigma, the one-ray extraction
    Y_sigma carries the ray-wise minimum of the pullback trace and B; the new
    trace on the refined smooth fan is the minimum over sigma of the
    pullback coefficients relative to those divisors, met with B
    (``_theta_coeffs``, which reads each vector as its own coordinates, as
    it is on the orthant).  The step records the weight, which the caller
    read from ``witnesses``; that call refuses a B that does not match the
    pair, so the cut takes B as matched and refuses nothing.
    """
    sigmas = tuple(_cut_valuations(pair, bdiv))
    n = pair.n
    new_fan = insert_rays(n, sigmas)
    new_state, theta = _cut_state(_orthant_state(pair, bdiv), sigmas, new_fan)
    step = CutStep(
        weight_before=weight,
        sigmas=sigmas,
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
        return {
            "initial_weight": self.initial_weight,
            "steps": [s.to_json() for s in self.steps],
            "final": self.final_state.to_json(),
            "terminated_weight": self.terminated_weight,
        }


def run_reduction(pair: LocalPair, bdiv: BDivisor) -> ReductionTrace:
    """Cut the orthant once, if there is a witness, and end at weight -1.

    The cut (``build_cut``) takes its valuations from the pair and B's
    deviations.  Every witness becomes a ray and no other valuation becomes
    one, so the cut leaves none (module docstring).  The final state, cut or
    not, is checked once by ``verify_reduction``; an output it refutes is an
    internal invariant breach, never silently ignored.
    """
    weight = max((wit.weight for wit in witnesses(pair, bdiv)), default=-1)
    if weight < 0:
        state, steps = _orthant_state(pair, bdiv), ()
    else:
        state, step = build_cut(pair, bdiv, weight)
        if not step.sigmas:
            raise InvariantViolation("witnesses present but no cut valuation found")
        steps = (step,)
    report = verify_reduction(state)
    if not report.ok:
        raise InvariantViolation(
            f"reduction output violates the bound at {report.violation[0]}"
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
