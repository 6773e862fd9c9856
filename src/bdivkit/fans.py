"""Simplicial fans subdividing the positive orthant.

A fan here is a simplicial subdivision of the closed positive orthant of
``R^n``: a list of primitive integer rays together with full-dimensional
cones (given as sorted tuples of ray indices) whose union covers the orthant.
Star subdivision at a primitive vector models a weighted blow-up; repeated
star subdivision at fundamental-parallelepiped points resolves the fan to a
smooth one.  All linear algebra is exact over the integers and rationals.

Dimensions are capped at 6: cone and parallelepiped enumeration costs grow
quickly and nothing in this toolkit needs more.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .exact import (
    InvariantViolation,
    PreconditionError,
    is_primitive,
    lattice_vec,
    primitive_part,
)

MAX_DIM = 6

_RESOLVE_STEP_CAP = 100_000


def _check_dim(n: int) -> None:
    if n < 1:
        raise PreconditionError("dimension must be >= 1")
    if n > MAX_DIM:
        raise PreconditionError(f"dimension {n} exceeds the supported cap {MAX_DIM}")


# ---------------------------------------------------------------------------
# exact linear algebra (small dense matrices)


def _det(rows) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _minor(rows, i: int, j: int):
    return [r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i]


def _adjugate(rows) -> list[list[int]]:
    """Adjugate matrix: adj(M) @ M = det(M) * I, all integer."""
    n = len(rows)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = _det(_minor(rows, i, j))
            adj[j][i] = -c if (i + j) % 2 else c
    return adj


def _rank(rows) -> int:
    """Rank by exact Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for i in range(row, len(m)):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


# ---------------------------------------------------------------------------
# cones


@dataclass(frozen=True)
class Cone:
    """Simplicial cone spanned by primitive, independent rays of the orthant."""

    gens: tuple

    def __post_init__(self):
        gens = tuple(lattice_vec(g) for g in self.gens)
        if not gens:
            raise PreconditionError("cone needs at least one generator")
        n = len(gens[0])
        _check_dim(n)
        for g in gens:
            if len(g) != n:
                raise PreconditionError("cone generators have mixed dimensions")
            if any(e < 0 for e in g):
                raise PreconditionError(f"generator {g} leaves the positive orthant")
            if not is_primitive(g):
                raise PreconditionError(f"generator {g} is not primitive")
        if len(gens) > n:
            raise PreconditionError("more generators than the ambient dimension")
        if _rank(gens) != len(gens):
            raise PreconditionError("cone generators are linearly dependent")
        object.__setattr__(self, "gens", gens)

    @property
    def dim(self) -> int:
        return len(self.gens)

    @property
    def ambient_dim(self) -> int:
        return len(self.gens[0])

    @cached_property
    def _matrix(self) -> list[list[int]]:
        # column j is generator j
        n = self.ambient_dim
        return [[self.gens[j][i] for j in range(self.dim)] for i in range(n)]

    @cached_property
    def det(self) -> int:
        if self.dim != self.ambient_dim:
            raise PreconditionError("determinant needs a full-dimensional cone")
        return _det(self._matrix)

    @cached_property
    def _adjugate(self) -> list[list[int]]:
        if self.dim != self.ambient_dim:
            raise PreconditionError("barycentric solve needs a full-dimensional cone")
        return _adjugate(self._matrix)

    def barycentric(self, v):
        """Exact coordinates of v in this full-dimensional cone, or None.

        Returns the tuple of Fractions lam with sum(lam_j * gens[j]) == v when
        all lam_j >= 0, else None.  Uses the integer adjugate so membership is
        decided with integer arithmetic only.
        """
        d = self.det
        nums = [sum(row[i] * v[i] for i in range(len(v))) for row in self._adjugate]
        if d > 0:
            if any(x < 0 for x in nums):
                return None
        else:
            if any(x > 0 for x in nums):
                return None
        return tuple(Fraction(x, d) for x in nums)

    def contains(self, v) -> bool:
        return self.barycentric(v) is not None

    def is_smooth(self) -> bool:
        return abs(self.det) == 1

    def parallelepiped_points(self) -> list:
        """Nonzero lattice points of {sum t_j gens[j] : 0 <= t_j < 1}, sorted.

        The points are the nontrivial residues of Z^n modulo the sublattice
        spanned by the generators; there are |det|-1 of them.  They are found
        by closing the subgroup of (Q/Z)^n generated by the columns of the
        inverse generator matrix, which keeps the cost proportional to |det|
        instead of the volume of a bounding box.
        """
        d = abs(self.det)
        n = self.dim
        if d == 1:
            return []
        adj = self._adjugate
        det = self.det
        # columns of G^{-1} reduced mod 1
        gens_frac = []
        for j in range(n):
            col = tuple(Fraction(adj[i][j], det) % 1 for i in range(n))
            gens_frac.append(col)
        group = {(Fraction(0),) * n}
        frontier = list(group)
        while frontier:
            nxt = []
            for t in frontier:
                for g in gens_frac:
                    u = tuple((a + b) % 1 for a, b in zip(t, g))
                    if u not in group:
                        group.add(u)
                        nxt.append(u)
            frontier = nxt
        if len(group) != d:
            raise InvariantViolation("parallelepiped residue count mismatch")
        points = []
        for t in group:
            if all(x == 0 for x in t):
                continue
            pt = tuple(
                sum(self.gens[j][i] * t[j] for j in range(n)) for i in range(n)
            )
            if any(x.denominator != 1 for x in pt):
                raise InvariantViolation("non-integral parallelepiped point")
            points.append(tuple(int(x) for x in pt))
        points.sort()
        return points


# ---------------------------------------------------------------------------
# fans


@dataclass(frozen=True)
class BarycentricResult:
    """A maximal cone containing the query plus exact coordinates in it."""

    cone: Cone
    ray_indices: tuple
    lambdas: tuple


@dataclass(frozen=True)
class Fan:
    """Simplicial subdivision of the positive orthant of dimension n."""

    n: int
    rays: tuple
    cones: tuple

    def __post_init__(self):
        _check_dim(self.n)
        rays = tuple(lattice_vec(r) for r in self.rays)
        for r in rays:
            if len(r) != self.n:
                raise PreconditionError("ray dimension mismatch")
            if any(e < 0 for e in r):
                raise PreconditionError(f"ray {r} leaves the positive orthant")
            if not is_primitive(r):
                raise PreconditionError(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise PreconditionError("duplicate rays")
        cones = tuple(sorted(tuple(sorted(c)) for c in self.cones))
        for c in cones:
            if len(c) != self.n:
                raise PreconditionError("maximal cones must be full-dimensional")
            if len(set(c)) != len(c):
                raise PreconditionError("repeated ray index in a cone")
            for i in c:
                if not 0 <= i < len(rays):
                    raise PreconditionError(f"cone refers to missing ray index {i}")
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "cones", cones)

    @cached_property
    def ray_set(self) -> frozenset:
        return frozenset(self.rays)

    @cached_property
    def ray_index(self) -> dict:
        return {r: i for i, r in enumerate(self.rays)}

    @cached_property
    def max_cones(self) -> tuple:
        return tuple(Cone(tuple(self.rays[i] for i in c)) for c in self.cones)

    def locate(self, v) -> BarycentricResult:
        """Find a maximal cone containing v with exact coordinates.

        Ties on shared faces go to the lexicographically-first cone by sorted
        ray indices (the cones are stored in that order).
        """
        vec = lattice_vec(v)
        if len(vec) != self.n:
            raise PreconditionError("query dimension mismatch")
        if all(e == 0 for e in vec):
            raise PreconditionError("cannot locate the zero vector")
        if any(e < 0 for e in vec):
            raise PreconditionError(f"{vec} is outside the positive orthant")
        for idx, cone in zip(self.cones, self.max_cones):
            lam = cone.barycentric(vec)
            if lam is not None:
                return BarycentricResult(cone=cone, ray_indices=idx, lambdas=lam)
        raise InvariantViolation(
            f"fan does not cover the orthant: no cone contains {vec}"
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "rays": [list(r) for r in self.rays],
            "cones": [list(c) for c in self.cones],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Fan":
        try:
            return cls(
                n=int(data["n"]),
                rays=tuple(tuple(int(x) for x in r) for r in data["rays"]),
                cones=tuple(tuple(int(i) for i in c) for c in data["cones"]),
            )
        except (KeyError, TypeError) as exc:
            raise PreconditionError(f"malformed fan JSON: {exc}") from exc


def orthant_fan(n: int) -> Fan:
    """The undivided orthant: rays e_1..e_n, one maximal cone."""
    _check_dim(n)
    rays = tuple(
        tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
    )
    return Fan(n=n, rays=rays, cones=(tuple(range(n)),))


def star_subdivide(fan: Fan, r) -> Fan:
    """Star subdivision at a ray through r (r is made primitive internally).

    Every maximal cone containing r is replaced by the cones spanned by r
    together with each facet not containing r; cones not containing r are
    kept.  Subdividing at an existing ray returns the fan unchanged.

    The kept cones enter the new fan as the parent's own ``Cone`` objects,
    so their determinants and adjugates are computed once along a chain of
    subdivisions; only the new pieces around r are built afresh.
    """
    vec = lattice_vec(r)
    if len(vec) != fan.n:
        raise PreconditionError("subdivision ray dimension mismatch")
    if all(e == 0 for e in vec):
        raise PreconditionError("cannot subdivide at the zero vector")
    if any(e < 0 for e in vec):
        raise PreconditionError(f"{vec} is outside the positive orthant")
    vec = primitive_part(vec)
    if vec in fan.ray_set:
        return fan

    new_rays = fan.rays + (vec,)
    r_idx = len(fan.rays)
    cones = {}  # sorted ray indices -> Cone
    for idx, cone in zip(fan.cones, fan.max_cones):
        lam = cone.barycentric(vec)
        if lam is None:
            cones[idx] = cone
            continue
        for j, l in enumerate(lam):
            if l > 0:
                piece = tuple(k for pos, k in enumerate(idx) if pos != j) + (r_idx,)
                cones[piece] = Cone(tuple(new_rays[k] for k in piece))
    child = Fan(n=fan.n, rays=new_rays, cones=tuple(cones))
    # seed the cached property, in the child's canonical cone order
    child.__dict__["max_cones"] = tuple(cones[c] for c in child.cones)
    return child


def is_smooth(fan: Fan) -> bool:
    """True iff every maximal cone has determinant +-1."""
    return all(c.is_smooth() for c in fan.max_cones)


def resolve(fan: Fan) -> Fan:
    """Refine to a smooth fan.

    Repeatedly star-subdivides the first non-smooth cone (in the canonical
    cone order) at the lexicographically smallest primitive lattice point of
    its fundamental parallelepiped.  Each step strictly decreases the
    affected cones' determinants, so the loop terminates.
    """
    current = fan
    for _ in range(_RESOLVE_STEP_CAP):
        pivot = None
        for cone in current.max_cones:
            if not cone.is_smooth():
                points = [p for p in cone.parallelepiped_points() if is_primitive(p)]
                if not points:
                    raise InvariantViolation(
                        f"non-smooth cone {cone.gens} has no primitive "
                        "parallelepiped point"
                    )
                pivot = points[0]
                break
        if pivot is None:
            return current
        refined = star_subdivide(current, pivot)
        if refined is current or len(refined.rays) == len(current.rays):
            raise InvariantViolation("resolution failed to make progress")
        current = refined
    raise InvariantViolation("resolution exceeded the step cap")


def ensure_rays(fan: Fan, vs) -> Fan:
    """Star-subdivide at each v in order (skipping existing rays), then resolve."""
    current = fan
    for v in vs:
        vec = primitive_part(lattice_vec(v))
        if vec in current.ray_set:
            continue
        current = star_subdivide(current, vec)
    current = resolve(current)
    for v in vs:
        if primitive_part(lattice_vec(v)) not in current.ray_set:
            raise InvariantViolation(f"requested ray {tuple(v)} missing after resolve")
    return current


def hirzebruch_jung_rays(a: int, b: int) -> list:
    """Interior rays of the minimal resolution of the cone {(1,0),(a,b)}.

    Independent continued-fraction oracle for the 2D resolution: under the
    lattice isomorphism sending (1,0) to (0,1) and (a,b) to (b,-(b-a)), the
    cone is the standard singularity model with d = b, k = b - a, whose
    resolution rays are generated by u_{i+1} = c_i * u_i - u_{i-1} with
    d/k = c_1 - 1/(c_2 - 1/(...)).
    """
    if not (1 <= a < b):
        raise PreconditionError("need 1 <= a < b")
    if gcd(a, b) != 1:
        raise PreconditionError("need gcd(a, b) = 1")
    d, k = b, b - a
    # continued-fraction digits: d/k = c_1 - 1/(c_2 - ...)
    digits = []
    num, den = d, k
    while den > 0:
        c = -((-num) // den)  # ceil(num/den)
        digits.append(c)
        num, den = den, c * den - num
    u_prev = (0, 1)
    u_cur = (1, 0)
    interior = []
    for c in digits:
        interior.append(u_cur)
        u_prev, u_cur = u_cur, (c * u_cur[0] - u_prev[0], c * u_cur[1] - u_prev[1])
    if u_cur != (d, -k):
        raise InvariantViolation("continued-fraction recursion did not close up")
    # map back: (x, y) -> (x + y, x)
    return [(x + y, x) for x, y in interior]
