"""Local SNC pairs, monomial valuations and their divisor coefficients.

The local model is (C^n, sum c_i H_i) with exact rational coefficients
c_i in [0,1] on the coordinate hyperplanes.  A monomial valuation is a
primitive nonzero integer vector v in the closed positive orthant; its
log discrepancy against the pair is sum v_i (1 - c_i), an affine-linear
function pinned by the values at the origin and at the unit vectors.

``pullback_coeff`` is the coefficient of the valuation in the positive
part of the log pullback, max(0, 1 - sum v_i (1 - c_i)); this is the value
of the pullback b-divisor of the pair.

``BDivisor`` stores a default-one b-divisor as a finite list of deviations
from the naive extension of the pair, which takes the pair's own
coefficient on a coordinate divisor and 1 on every other valuation.
``ModelDivisor`` carries ray coefficients on a fan so the pullback
coefficient can be evaluated relative to a higher model via barycentric
coordinates: an integer dot product of the fan's coordinate numerators with
the weights 1 - g_j over one common denominator, and one ``Fraction`` at the
end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import ceil, floor

from .exact import (
    LatticeVec,
    PreconditionError,
    complement_weights,
    format_int,
    format_rat,
    format_rat_list,
    is_primitive,
    lattice_vec,
    parse_int,
    parse_int_list,
    parse_list,
    parse_rat,
    parse_rat_list,
    record,
)
from .fans import Fan


def valuation(v) -> LatticeVec:
    """Validate a monomial valuation: primitive, >= 0, not zero."""
    vec = lattice_vec(v)
    if any(e < 0 for e in vec):
        raise PreconditionError(f"valuation {vec} leaves the positive orthant")
    if all(e == 0 for e in vec):
        raise PreconditionError("the zero vector is not a valuation")
    if not is_primitive(vec):
        raise PreconditionError(f"valuation {vec} is not primitive")
    return vec


def unit_index(v) -> int | None:
    """Index i when v = e_i, else None."""
    idx = None
    for i, e in enumerate(v):
        if e == 0:
            continue
        if e != 1 or idx is not None:
            return None
        idx = i
    return idx


def _check_unit_interval(x: Fraction, what: str) -> Fraction:
    if not 0 <= x <= 1:
        raise PreconditionError(f"{what} {format_rat(x)} is outside [0, 1]")
    return x


@record
class LocalPair:
    """Dimension n with exact coefficients c_1..c_n in [0,1] (0 means absent)."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(parse_rat(c) for c in self.coeffs)
        if not cs:
            raise PreconditionError("a pair needs dimension >= 1")
        for c in cs:
            _check_unit_interval(c, "pair coefficient")
        object.__setattr__(self, "coeffs", cs)

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def is_klt(self) -> bool:
        return all(c < 1 for c in self.coeffs)

    def to_json(self) -> dict:
        return {"n": self.n, "coeffs": format_rat_list(self.coeffs)}

    @classmethod
    def from_json(cls, data: dict) -> "LocalPair":
        try:
            coeffs = parse_rat_list(data["coeffs"])
            n = parse_int(data["n"], "n") if "n" in data else len(coeffs)
        except (KeyError, TypeError) as exc:
            raise PreconditionError(f"malformed pair JSON: {exc}") from exc
        if n != len(coeffs):
            raise PreconditionError("pair JSON: n does not match the coefficient count")
        return cls(coeffs)


def log_discrepancy(pair: LocalPair, v) -> Fraction:
    """sum v_i (1 - c_i), exactly."""
    vec = valuation(v)
    if len(vec) != pair.n:
        raise PreconditionError("valuation dimension mismatch")
    return sum(
        (Fraction(e) * (1 - c) for e, c in zip(vec, pair.coeffs)), Fraction(0)
    )


def pullback_coeff(pair: LocalPair, v) -> Fraction:
    """Coefficient of v in the positive part of the log pullback.

    max(0, 1 - sum v_i (1 - c_i)); the unclamped expression is affine linear
    with value 1 at the origin and c_i at e_i, and the positive part clamps
    it at zero.
    """
    return max(Fraction(0), 1 - log_discrepancy(pair, v))


# the value of every unlisted valuation that is not a unit vector; one
# shared Fraction, since Fractions are immutable
_ONE = Fraction(1)


@record
class BDivisor:
    """Default-one b-divisor: values at e_1..e_n plus finitely many deviations.

    Every valuation not listed takes the value 1; unit vectors take the pair
    coefficients, so deviation keys must not be unit vectors.
    """

    pair_coeffs: tuple
    deviations: dict = {}

    def __post_init__(self):
        pcs = tuple(parse_rat(c) for c in self.pair_coeffs)
        for c in pcs:
            _check_unit_interval(c, "divisorial value")
        n = len(pcs)
        devs = {}
        for key, value in self.deviations.items():
            vec = valuation(key)
            if len(vec) != n:
                raise PreconditionError("deviation dimension mismatch")
            if unit_index(vec) is not None:
                raise PreconditionError(
                    f"deviation at unit vector {vec}: set the divisorial value instead"
                )
            devs[vec] = _check_unit_interval(parse_rat(value), "deviation value")
        object.__setattr__(self, "pair_coeffs", pcs)
        object.__setattr__(self, "deviations", devs)

    @property
    def n(self) -> int:
        return len(self.pair_coeffs)

    def value(self, v) -> Fraction:
        """The value at v, which must be a valuation tuple of dimension n.

        Nothing is checked here: callers pass a fan ray, a deviation key or a
        vector they validated, such as a cut valuation.
        """
        val = self.deviations.get(v)
        if val is not None:
            return val
        i = unit_index(v)
        return _ONE if i is None else self.pair_coeffs[i]

    def to_json(self, fmt=format_rat) -> dict:
        return {
            "pair": format_rat_list(self.pair_coeffs),
            # the writer renders a tuple as it renders a list
            "deviations": [
                {"v": k, "value": fmt(val)}
                for k, val in sorted(self.deviations.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict, default_pair: LocalPair | None = None) -> "BDivisor":
        if not isinstance(data, dict):
            raise PreconditionError(f"b-divisor JSON must be an object, got {data!r}")
        try:
            if data.get("pair") is not None:
                pcs = parse_rat_list(data["pair"])
            elif default_pair is not None:
                pcs = default_pair.coeffs
            else:
                raise PreconditionError("b-divisor JSON needs 'pair' values")
            devs = {}
            for item in parse_list(data.get("deviations", ()), "deviations"):
                key = parse_int_list(item["v"], "v")
                if key in devs:
                    raise PreconditionError(f"duplicate deviation key {key}")
                devs[key] = parse_rat(item["value"])
        except (KeyError, TypeError) as exc:
            raise PreconditionError(f"malformed b-divisor JSON: {exc}") from exc
        return cls(pcs, devs)


@record
class ModelDivisor:
    """A divisor on a toric model: one exact coefficient per fan ray."""

    fan: Fan
    ray_coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(parse_rat(c) for c in self.ray_coeffs)
        if len(coeffs) != len(self.fan.rays):
            raise PreconditionError("one coefficient per fan ray is required")
        for c in coeffs:
            _check_unit_interval(c, "ray coefficient")
        object.__setattr__(self, "ray_coeffs", coeffs)

    @cached_property
    def weights(self) -> tuple:
        """(w, den): the weights 1 - g_j of the rays as integers w_j over den."""
        return complement_weights(self.ray_coeffs)


def pullback_trace(pair: LocalPair, fan: Fan) -> ModelDivisor:
    """Trace of the pair's pullback b-divisor on a fan: pullback_coeff per ray."""
    if fan.n != pair.n:
        raise PreconditionError("fan dimension does not match the pair")
    return ModelDivisor(fan, tuple(pullback_coeff(pair, r) for r in fan.rays))


def relative_pullback_coeff(md: ModelDivisor, v) -> Fraction:
    """Pullback coefficient of v relative to a pair living on a model.

    Locates v in the model's fan with exact barycentric coordinates lam and
    returns max(0, 1 - sum lam_j (1 - g_j)) where g_j are the ray
    coefficients of the containing cone.  On the trivial fan this reduces to
    ``pullback_coeff``; the value is independent of the cone chosen on a
    shared face because the interpolated ray values agree there.
    """
    gap, scale = pullback_gap(md, md.fan.locate(v))
    return Fraction(gap, scale) if gap > 0 else Fraction(0)


def pullback_gap(md: ModelDivisor, loc) -> tuple:
    """1 - sum lam_j (1 - g_j) at a ``Fan.locate`` result, as integers (gap, scale).

    With lam_j = nums_j / |det| and 1 - g_j = w_j / D the value is gap / scale
    with scale = |det| * D; gap may be <= 0, where the pullback clips to 0.
    """
    w, wden = md.weights
    total = 0
    for x, ray_idx in zip(loc.nums, loc.ray_indices):
        if x:
            total += x * w[ray_idx]
    scale = abs(loc.cone.det) * wden
    return scale - total, scale


# ---------------------------------------------------------------------------
# minimal log discrepancy at the origin


def mld_origin_minimizer(pair: LocalPair) -> tuple:
    """Exact (minimal log discrepancy at the origin, lex-least minimizer).

    pair is a ``LocalPair``, so every coefficient c_i lies in [0, 1].  The
    valuations centred at the origin are the v >= (1,..,1), and the log
    discrepancy sum v_i (1 - c_i) has weights 1 - c_i >= 0, so raising a
    coordinate past 1 never lowers it: the minimum is sum (1 - c_i), attained
    at (1,..,1), which is also the lex-least of all the vectors allowed.
    """
    return sum((1 - c for c in pair.coeffs), Fraction(0)), (1,) * pair.n


def mld_origin(pair: LocalPair) -> Fraction:
    """Minimum of the log discrepancy over valuations centred at the origin.

    May be <= 0 when some coefficient equals 1 (the pair is then not klt).
    """
    return mld_origin_minimizer(pair)[0]


# ---------------------------------------------------------------------------
# rounding comparison


@record
class RoundingReport:
    floor_up: tuple
    ceil_down: tuple
    le: bool
    equal: bool

    def to_json(self) -> dict:
        return {
            "floor_m": [format_int(x) for x in self.floor_up],
            "ceil_m_minus_1": [format_int(x) for x in self.ceil_down],
            "le": self.le,
            "equal": self.equal,
        }


def rounding_comparison(coeffs, m: int) -> RoundingReport:
    """Compare floor(m*c) with ceil((m-1)*c) componentwise, exactly.

    Requires every coefficient in [0, 1); the floor never exceeds the ceil,
    with equality whenever the coefficients have the form (r-1)/r.  So ``le``
    is always true: floor(m c) <= (m-1) c + c < ceil((m-1) c) + 1, between
    integers.
    """
    if m < 1:
        raise PreconditionError("m must be a positive integer")
    cs = parse_rat_list(coeffs)
    for c in cs:
        if not 0 <= c < 1:
            raise PreconditionError(
                f"coefficient {format_rat(c)} is outside [0, 1)"
            )
    lhs = tuple(floor(m * c) for c in cs)
    rhs = tuple(ceil((m - 1) * c) for c in cs)
    return RoundingReport(floor_up=lhs, ceil_down=rhs, le=True, equal=lhs == rhs)


# ---------------------------------------------------------------------------
# independent 2D cross-check


def blowup_chain_coeff(b1, b2, v) -> Fraction:
    """Pullback coefficient on C^2 via an explicit chain of point blow-ups.

    Walks the Stern-Brocot path from the corner (e_1, e_2) to the ray v,
    propagating the exceptional coefficient e = x + y - 1 at every step and
    clamping only at the end.  A run of k equal steps, each subtracting the
    smaller entry from the larger and adding x - 1 (or y - 1) to the other
    coefficient, is taken at once, so the walk makes as many passes as the
    continued fraction of v has terms.  Used as an independent oracle for
    ``pullback_coeff`` in dimension 2.
    """
    vec = valuation(v)
    if len(vec) != 2:
        raise PreconditionError("the blow-up chain oracle works in dimension 2")
    x = parse_rat(b1)
    y = parse_rat(b2)
    alpha, beta = vec
    if beta == 0:
        return max(Fraction(0), x)
    if alpha == 0:
        return max(Fraction(0), y)
    # subtracting the smaller entry keeps both positive and the gcd 1, so the
    # walk ends at (1, 1), the corner whose exceptional coefficient is returned;
    # a run stops once the larger entry is at most the smaller, after
    # k = (larger - 1) // smaller steps
    while alpha != beta:
        if alpha > beta:
            k = (alpha - 1) // beta
            alpha -= k * beta
            y += k * (x - 1)
        else:
            k = (beta - 1) // alpha
            beta -= k * alpha
            x += k * (y - 1)
    return max(Fraction(0), x + y - 1)
