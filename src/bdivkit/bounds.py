"""Explicit bound formulas: automorphism counts, volumes, and constants.

Everything here is a closed-form exact computation: the genus-g curve bound
84(g-1) and its restatement as 42 times the canonical volume, products of
maximal-symmetry curves, Fermat hypersurfaces and the unitary groups acting
on them in characteristic p, the doubly-exponential sequence r0 = 1,
r_{k+1} = r_k (r_k + 1) governing the smallest known log-pair volumes, exact
lattice-polytope volumes backing the toric volume computations, and the
constant propagation m = 2 g0 (1 + gamma)^(n-1) used by the effectivity
bookkeeping.

``sylvester`` returns the sequence as a plain tuple of its terms.

Polytope vertices (``Polytope.vertices``, enumerated once per polytope) are
integer numerators over one positive denominator: the offsets are scaled to
integers, each n-subset of rows meets in adj(A_S) (-B_S) / det(A_S) from
the ``exact`` kernel, feasibility and active rows are integer comparisons,
and the feasible vertices share the lcm of their |det|.  Volumes sum integer
simplex determinants, and the one ``Fraction`` built is the volume returned.

Polynomials here have integer coefficients and are plain tuples of ints,
constant term first: ``poly_times`` multiplies one by x^i - s and
``poly_eval`` evaluates one by Horner's rule.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, factorial, floor, gcd, lcm
from operator import mul

from .exact import (
    PreconditionError,
    adjugate,
    checked_power,
    cofactor_normal,
    determinant,
    format_int,
    format_rat,
    parse_int,
    parse_int_list,
    parse_list,
    parse_rat,
    parse_rat_list,
    rank,
    record,
)


@record
class BoundReport:
    """Named exact quantities with short provenance notes."""

    kind: str
    values: dict
    notes: dict = {}

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for key, val in sorted(self.values.items()):
            out[key] = format_int(val) if isinstance(val, int) else format_rat(val)
        if self.notes:
            out["notes"] = dict(sorted(self.notes.items()))
        return out


# ---------------------------------------------------------------------------
# the doubly-exponential sequence and minimal-volume candidates


# r_15 has 6 671 digits, past the 4 300 that Python converts to decimal by
# default, and each further term doubles the length
SYLVESTER_K_CAP = 14

# 1 / r_{n+2}^n: n = 10 gives an 8 338-digit denominator, past the same limit
MINVOL_N_CAP = 9

# a fixed cap on time, like UNITARY_N_CAP below, whatever the digit limit:
# the rows grow to (n+2)! (n+3)^(n+1), the scan to 798 takes 0.28 s on a
# 2-vCPU machine and n_max = 3000 took 4.1 s; 798 is also the last scan
# whose rows fit the default 4 300-digit limit
FERMAT_SCAN_N_CAP = 798

# one row per prime power up to q_max, found by trial division: on a
# 2-vCPU machine `charp --q-max 10000` takes 0.35 s and prints 356 kB,
# and q_max = 100 000 took 2.9 s and printed 3 MB
CHARP_Q_CAP = 10_000

# the polynomial part has degree about n^2 and is built densely, one factor
# x^i - s at a time, in about n^3 coefficient operations: on a 2-vCPU machine
# `unitary --n 32 --q 2 --verify` takes 0.2 s, building the n = 400 part 7 s,
# and n = 100 000 would need about 5 * 10^9 coefficients
UNITARY_N_CAP = 32

# vertex enumeration solves every n-subset of the rows, binom(rows, n) of
# them: on a 2-vCPU machine `polyvol --verify` on a 4-D polytope with 21 rows
# (5 985 subsets) takes 1.0 s, and the time grows with the subsets: 4.9 s at
# 30 rows, 14 s at 40
POLYTOPE_SUBSET_CAP = 6000


def sylvester(k: int) -> tuple:
    """The terms r_0..r_k of the sequence, exactly."""
    if k < 1:
        raise PreconditionError("need k >= 1")
    if k > SYLVESTER_K_CAP:
        raise PreconditionError(f"k = {k} exceeds the cap SYLVESTER_K_CAP = {SYLVESTER_K_CAP}")
    terms = [1]
    for _ in range(k):
        terms.append(terms[-1] * (terms[-1] + 1))
    return tuple(terms)


def min_volume_candidate(n: int) -> Fraction:
    """1 / r_{n+2}^n: the smallest known log-pair volume in dimension n."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    if n > MINVOL_N_CAP:
        raise PreconditionError(f"n = {n} exceeds the cap MINVOL_N_CAP = {MINVOL_N_CAP}")
    r = sylvester(n + 2)[n + 2]
    return Fraction(1, r**n)


def sylvester_coeffs(n: int) -> tuple:
    """The n+2 coefficients r_i/(r_i + 1), i = 0..n+1."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    return tuple(Fraction(r, r + 1) for r in sylvester(n + 1))


def projective_space_log_volume(n: int, coeffs) -> Fraction:
    """Volume of projective n-space with n+2 general hyperplanes.

    With coefficients a_0..a_{n+1} the log canonical class is linearly
    equivalent to (sum a_i - n - 1) times a hyperplane, so the volume is
    max(0, sum a_i - n - 1)^n; zero when the class is not big.
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    cs = parse_rat_list(coeffs)
    if len(cs) != n + 2:
        raise PreconditionError(f"need exactly n+2 = {n + 2} coefficients")
    for c in cs:
        if not 0 <= c <= 1:
            raise PreconditionError(f"coefficient {format_rat(c)} outside [0, 1]")
    excess = sum(cs, Fraction(0)) - (n + 1)
    if excess <= 0:
        return Fraction(0)
    return excess**n


# ---------------------------------------------------------------------------
# exact lattice-polytope volume


@record
class Polytope:
    """H-representation: rows (normal, offset) meaning <normal, x> >= -offset."""

    n: int
    normals: tuple
    offsets: tuple

    def __post_init__(self):
        if not 1 <= self.n <= 4:
            raise PreconditionError("polytope dimension must be between 1 and 4")
        normals = tuple(
            parse_int_list(row, "normals") for row in parse_list(self.normals, "normals")
        )
        offsets = parse_rat_list(self.offsets)
        if len(normals) != len(offsets):
            raise PreconditionError("one offset per normal is required")
        if len(normals) < self.n + 1:
            raise PreconditionError("too few halfspaces to bound a polytope")
        subsets = comb(len(normals), self.n)
        if subsets > POLYTOPE_SUBSET_CAP:
            raise PreconditionError(
                f"{subsets} subsets of {self.n} rows exceed the cap "
                f"POLYTOPE_SUBSET_CAP = {POLYTOPE_SUBSET_CAP}"
            )
        for row in normals:
            if len(row) != self.n:
                raise PreconditionError("normal dimension mismatch")
            if all(x == 0 for x in row):
                raise PreconditionError("zero normal")
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)

    @cached_property
    def vertices(self) -> tuple:
        """All vertices with their active-constraint sets; errors when unbounded.

        The pair (den, verts): den is a positive integer, and verts the
        sorted tuple of (numerators, frozenset of active row indices) pairs,
        each vertex being its integer numerators over den.  They are
        enumerated on first use, once per polytope.
        """
        # recession ray check: a nonzero direction with <normal, d> >= 0 for all
        # rows makes the polyhedron unbounded; extreme rays lie on n-1 active
        # constraints of rank n-1, whose null space the cofactor normal spans
        # (it is zero when the rank is lower), so scanning those is exhaustive
        n = self.n
        rows = self.normals
        for subset in combinations(range(len(rows)), n - 1):
            direction = cofactor_normal([rows[i] for i in subset])
            if not any(direction):
                continue
            for cand in (direction, tuple(-x for x in direction)):
                if all(sum(map(mul, row, cand)) >= 0 for row in rows):
                    raise PreconditionError("polytope is unbounded")

        # y = D x, with D the lcm of the offsets' denominators, keeps the rows
        # <a_i, y> >= -B_i on integers; an n-subset S of rows with det(A_S) != 0
        # meets in y = u / |det|, u = sign(det) adj(A_S) (-B_S)
        d = lcm(*(b.denominator for b in self.offsets))
        offs = [b.numerator * (d // b.denominator) for b in self.offsets]
        found = set()
        for subset in combinations(range(len(rows)), n):
            mat = [rows[i] for i in subset]
            adj = adjugate(mat)
            det = sum(map(mul, adj[0], (row[0] for row in mat)))
            if det == 0:
                continue
            rhs = [offs[i] if det > 0 else -offs[i] for i in subset]
            u = tuple(-sum(map(mul, row, rhs)) for row in adj)
            q = abs(det)
            if all(sum(map(mul, row, u)) >= -b * q for row, b in zip(rows, offs)):
                found.add((u, q))
        # over M = lcm of the |det| every vertex has one integer tuple, and
        # tuples over one positive denominator sort as the points do
        m = lcm(*(q for _, q in found))
        points = sorted({tuple(x * (m // q) for x in u) for u, q in found})
        out = []
        for pt in points:
            active = frozenset(
                i
                for i, (row, b) in enumerate(zip(rows, offs))
                if sum(map(mul, row, pt)) == -b * m
            )
            out.append((pt, active))
        return m * d, tuple(out)

    @classmethod
    def from_json(cls, data: dict) -> "Polytope":
        try:
            return cls(
                n=parse_int(data["n"], "n"),
                normals=data["normals"],
                offsets=data["offsets"],
            )
        except (KeyError, TypeError) as exc:
            raise PreconditionError(f"malformed polytope JSON: {exc}") from exc

    @classmethod
    def simplex(cls, n: int, d) -> "Polytope":
        """{x >= 0, sum x <= d}: the section polytope of degree d on P^n."""
        normals = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        normals.append(tuple(-1 for _ in range(n)))
        offsets = [Fraction(0)] * n + [parse_rat(d)]
        return cls(n=n, normals=tuple(normals), offsets=tuple(offsets))


def _affine_dim(points) -> int:
    """The dimension of the affine hull of a nonempty list of points."""
    base = points[0]
    rows = [[x - y for x, y in zip(p, base)] for p in points[1:]]
    return rank(rows)


def _triangulate(verts_active, dim: int):
    """Fan triangulation of a face into dim-simplices (tuples of points).

    The face has affine dimension dim: both callers check that rank first.
    """
    if len(verts_active) == dim + 1:
        return [tuple(p for p, _ in verts_active)]
    base_pt, base_active = min(verts_active)
    simplices = []
    facets_seen = set()
    all_constraints = set()
    for _, act in verts_active:
        all_constraints |= act
    for j in sorted(all_constraints):
        if j in base_active:
            continue
        sub = [(p, a) for p, a in verts_active if j in a]
        if len(sub) < dim:
            continue
        if _affine_dim([p for p, _ in sub]) != dim - 1:
            continue
        key = frozenset(p for p, _ in sub)
        if key in facets_seen:
            continue
        facets_seen.add(key)
        for simplex in _triangulate(sub, dim - 1):
            simplices.append((base_pt,) + simplex)
    return simplices


def polytope_volume(poly: Polytope) -> Fraction:
    """Exact Euclidean volume via vertex enumeration and fan triangulation.

    Returns 0 for empty or lower-dimensional input; raises on unbounded.
    """
    den, verts = poly.vertices
    if len(verts) < poly.n + 1:
        return Fraction(0)
    if _affine_dim([p for p, _ in verts]) < poly.n:
        return Fraction(0)
    total = 0
    for simplex in _triangulate(verts, poly.n):
        base = simplex[0]
        total += abs(determinant([[x - y for x, y in zip(p, base)] for p in simplex[1:]]))
    return Fraction(total, den**poly.n * factorial(poly.n))


# ---------------------------------------------------------------------------
# curve and hypersurface reports


def hurwitz_report(g: int) -> BoundReport:
    """|G| <= 84(g-1) for a genus-g curve, g >= 2; equals 42 vol(K)."""
    if g < 2:
        raise PreconditionError("need genus g >= 2 (general type)")
    vol = 2 * g - 2
    bound = 84 * (g - 1)
    return BoundReport(
        kind="hurwitz",
        values={"g": g, "vol": vol, "bound": bound, "ratio": Fraction(bound, vol)},
        notes={"bound": "84*(g-1)", "vol": "2g-2", "ratio": "bound/vol = 42"},
    )


def curve_power_report(n: int, g: int) -> BoundReport:
    """The n-fold product of a maximal-symmetry genus-g curve."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    if g < 2:
        raise PreconditionError("need genus g >= 2")
    aut = factorial(n) * 42**n * (2 * g - 2) ** n
    vol = factorial(n) * (2 * g - 2) ** n
    ratio = Fraction(aut, vol)
    return BoundReport(
        kind="curve-power",
        values={"n": n, "g": g, "aut": aut, "vol": vol, "ratio": ratio},
        notes={
            "aut": "n! * 42^n * (2g-2)^n",
            "vol": "n! * (2g-2)^n",
            "ratio": "42^n, independent of g",
        },
    )


def fermat_report(n: int, m: int) -> BoundReport:
    """Degree-m Fermat hypersurface in projective (n+1)-space.

    m^(n+1) is bounded before it is computed, and the factorial after, so a
    symmetry count past the digit limit is refused before any product is
    built: aut_lower, printed in full, is at least that power.
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    if m <= n + 2:
        raise PreconditionError("not of general type: volume <= 0")
    aut_lower = checked_power(m, n + 1) * factorial(n + 2)
    vol = m * (m - n - 2) ** n
    return BoundReport(
        kind="fermat",
        values={
            "n": n,
            "m": m,
            "aut_lower": aut_lower,
            "vol": vol,
            "ratio": Fraction(aut_lower, vol),
        },
        notes={
            "aut_lower": "(n+2)! * m^(n+1), a lower bound for the symmetry count",
            "vol": "m * (m-n-2)^n",
        },
    )


def fermat_threshold_scan(n_max: int) -> list:
    """Rows comparing (n+2)!(n+3)^n against 42^n for m = n+3, n = 1..n_max."""
    if n_max < 1:
        raise PreconditionError("need n_max >= 1")
    if n_max > FERMAT_SCAN_N_CAP:
        raise PreconditionError(
            f"n_max = {n_max} exceeds the cap FERMAT_SCAN_N_CAP = {FERMAT_SCAN_N_CAP}"
        )
    rows = []
    for n in range(1, n_max + 1):
        report = fermat_report(n, n + 3)
        ratio = report.values["ratio"]
        rows.append(
            {
                "n": n,
                "m": n + 3,
                "aut_lower": report.values["aut_lower"],
                "vol": report.values["vol"],
                "ratio": ratio,
                "threshold": 42**n,
                "exceeds": ratio > 42**n,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# unitary group orders in characteristic p


def is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    m = q
    p = None
    d = 2
    while d * d <= m:
        if m % d == 0:
            p = d
            while m % d == 0:
                m //= d
            break
        d += 1
    if p is None:
        return True  # q itself is prime
    return m == 1


def poly_times(coeffs: tuple, i: int, s: int) -> tuple:
    """The integer polynomial coeffs times x^i - s, constant term first."""
    out = [0] * i + list(coeffs)
    for k, c in enumerate(coeffs):
        out[k] -= s * c
    return tuple(out)


def poly_eval(coeffs: tuple, x):
    """The polynomial at x, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def unitary_order_poly(n: int) -> tuple:
    """Polynomial part of the unitary group order, plus the gcd divisor rule.

    Returns (coeffs, n+2), where coeffs are the integer coefficients, constant
    term first, of q^binom(n+2,2) * prod_{i=2}^{n+2} (q^i - (-1)^i); the true
    order divides the polynomial value by gcd(n+2, q+1).  The gcd factor is
    not polynomial in q, so degree statements refer to the polynomial part.
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    if n > UNITARY_N_CAP:
        raise PreconditionError(f"n = {n} exceeds the cap UNITARY_N_CAP = {UNITARY_N_CAP}")
    coeffs = (0,) * comb(n + 2, 2) + (1,)
    for i in range(2, n + 3):
        coeffs = poly_times(coeffs, i, (-1) ** i)
    return coeffs, n + 2


def unitary_order_value(n: int, q: int) -> int:
    """Exact order of the unitary group on an (n+2)-dimensional space over q."""
    if not is_prime_power(q):
        raise PreconditionError(f"q = {q} is not a prime power")
    poly, gcd_mod = unitary_order_poly(n)
    return _unitary_order_at(poly, gcd_mod, q)


def _unitary_order_at(poly: tuple, gcd_mod: int, q: int) -> int:
    """The order at the prime power q from unitary_order_poly's (poly, gcd_mod).

    The division is exact: q = -1 modulo q + 1, so q + 1 divides every factor
    q^i - (-1)^i, and gcd(gcd_mod, q + 1) divides q + 1.
    """
    return poly_eval(poly, q) // gcd(gcd_mod, q + 1)


def char_p_ratio_report(q_max: int) -> tuple:
    """Fermat curves of degree q+1 over prime powers 3 <= q <= q_max.

    For each q the curve has genus q(q-1)/2, canonical volume (q+1)(q-2),
    and a unitary symmetry group of order q^3 (q^2-1)(q^3+1)/gcd(3, q+1);
    the order stays below 216 * vol^4 throughout.  Returns (report, rows).

    The bound holds for every q >= 3: the order is at most
    q^3 * q(q+1) * (q+1)q^2 = q^6 (q+1)^2, and q - 2 >= q/3 gives
    216 vol^4 >= (8/3) q^4 (q+1)^4, which is larger since q <= q + 1.
    """
    if q_max < 3:
        raise PreconditionError("need q_max >= 3")
    if q_max > CHARP_Q_CAP:
        raise PreconditionError(f"q_max = {q_max} exceeds the cap CHARP_Q_CAP = {CHARP_Q_CAP}")
    poly, gcd_mod = unitary_order_poly(1)
    rows = []
    max_ratio = None
    for q in range(3, q_max + 1):
        if not is_prime_power(q):
            continue
        g = q * (q - 1) // 2
        vol = 2 * g - 2
        order = _unitary_order_at(poly, gcd_mod, q)
        bound = 216 * vol**4
        ratio = Fraction(order, vol**4)
        if max_ratio is None or ratio > max_ratio:
            max_ratio = ratio
        rows.append(
            {
                "q": q,
                "g": g,
                "vol": vol,
                "order": order,
                "bound": bound,
                "ok": order <= bound,
            }
        )
    return BoundReport(
        kind="char-p",
        values={
            "q_max": q_max,
            "count": len(rows),
            "max_ratio": max_ratio,
            "order_degree": len(poly) - 1,
            "vol_degree": 2,
        },
        notes={
            "bound": "order <= 216 * vol^4",
            "degrees": "deg order = 8 = 4 * deg vol",
            "rows": "see the scan rows",
        },
    ), rows


# ---------------------------------------------------------------------------
# constant propagation


def effective_constants(n: int, eps, gamma0, delta) -> BoundReport:
    """Propagate a hypothetical sub-dimensional volume bound eps.

    gamma_rec = 2n/eps and m_rec = 2*gamma0*(1+gamma_rec)^(n-1) make a
    multiple of an ample divisor potentially birational; gamma_bir = 4n/eps
    and C = 2*(1+gamma_bir)^(n-1) give the birationality constant with
    volume threshold (C*n)^n; M_min is the least integer strictly greater
    than C*n/delta + 1.
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    e = parse_rat(eps)
    g0 = parse_rat(gamma0)
    d = parse_rat(delta)
    if e <= 0 or d <= 0:
        raise PreconditionError("eps and delta must be positive")
    if g0 < 1:
        raise PreconditionError("gamma0 must be >= 1")
    gamma_rec = Fraction(2 * n) / e
    m_rec = 2 * g0 * checked_power(1 + gamma_rec, n - 1)
    gamma_bir = Fraction(4 * n) / e
    big_c = 2 * checked_power(1 + gamma_bir, n - 1)
    vol_threshold = checked_power(big_c * n, n)
    x = big_c * n / d
    m_min = floor(x) + 2  # least integer > x + 1, whether or not x is integral
    return BoundReport(
        kind="constants",
        values={
            "n": n,
            "eps": e,
            "gamma0": g0,
            "delta": d,
            "gamma_rec": gamma_rec,
            "m_rec": m_rec,
            "gamma_bir": gamma_bir,
            "C": big_c,
            "vol_threshold": vol_threshold,
            "M_min": m_min,
        },
        notes={
            "gamma_rec": "2n/eps",
            "m_rec": "2*gamma0*(1+gamma_rec)^(n-1)",
            "gamma_bir": "4n/eps",
            "C": "2*(1+gamma_bir)^(n-1)",
            "vol_threshold": "(C*n)^n",
            "M_min": "least integer > C*n/delta + 1",
        },
    )
