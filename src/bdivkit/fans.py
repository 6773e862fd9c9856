"""Simplicial fans subdividing the positive orthant.

A fan here is a simplicial subdivision of the closed positive orthant of
``R^n``: a list of primitive integer rays together with full-dimensional
cones (given as sorted tuples of ray indices) whose union covers the orthant.
Star subdivision at a primitive vector models a weighted blow-up; repeated
star subdivision at fundamental-parallelepiped points resolves the fan to a
smooth one.  All linear algebra is exact over the integers and rationals, and
comes from the kernel in ``exact`` (determinants, ranks, adjugates and
cofactor normals); this module carries none of its own.

The coordinates of a lattice vector v in a full-dimensional cone are kept as
integers: ``Cone.coords`` returns numerators over the cone's |det| (the rows
of the adjugate, with the sign of det folded in, applied to v), so v is in
the cone exactly when every numerator is >= 0.  ``Fan.locate`` returns a
location, a ``BarycentricResult``: a plain tuple (cone, ray_indices, nums)
with those field names, holding the numerators over |det| of the cone found,
whether v is a fan ray read from the ray table or found by a scan.  On a
smooth cone |det| = 1 and the numerators are the coordinates themselves.
No coordinate is a ``Fraction``: only ``Cone.barycentric`` returns them, and
the other ``Fraction``s here are the residues of ``parallelepiped_points``,
the angle key ``Fan._arcs`` sorts chain starts by and the share of the
orthant that ``subdivision_defect`` reports unfilled.

A 2-D fan is subdivided in angular order: its cones are arcs between
consecutive rays of the quadrant, sorted by angle and kept with the fan, and
a new ray finds the arc it splits by bisection on integer cross products.
Every surface cut inserts its valuations this way, with no search over the
cones and no adjugate built for a cone nothing locates in.  Higher
dimensions keep a cone table that finds the cones containing a new ray
through the face it lies on.

Dimensions are capped at 6: cone and parallelepiped enumeration costs grow
quickly and nothing in this toolkit needs more.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul

from .exact import (
    InvariantViolation,
    PreconditionError,
    adjugate,
    cofactor_normal,
    determinant,
    format_rat,
    is_primitive,
    lattice_vec,
    parse_int,
    primitive_part,
    rank,
    record,
    trusted,
)

MAX_DIM = 6

_RESOLVE_STEP_CAP = 100_000


def _check_dim(n: int) -> None:
    if n < 1:
        raise PreconditionError("dimension must be >= 1")
    if n > MAX_DIM:
        raise PreconditionError(f"dimension {n} exceeds the supported cap {MAX_DIM}")


# ---------------------------------------------------------------------------
# cones


@record
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
        object.__setattr__(self, "gens", gens)
        # det(G^T) = det(G): a full cone's integer determinant, cached here,
        # decides independence
        independent = self.det != 0 if len(gens) == n else rank(gens) == len(gens)
        if not independent:
            raise PreconditionError("cone generators are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.gens)

    @property
    def ambient_dim(self) -> int:
        return len(self.gens[0])

    @cached_property
    def det(self) -> int:
        if self.dim != self.ambient_dim:
            raise PreconditionError("determinant needs a full-dimensional cone")
        return determinant(self.gens)

    @cached_property
    def _inward_adjugate(self) -> tuple:
        # rows of sign(det) adj(G), G the matrix with columns gens, so row .
        # v is |det| times v's coordinate; adj(G) is the transpose of the
        # adjugate of gens, and its row j the cofactor normal of the facet
        # opposite gens[j], up to sign
        if self.dim != self.ambient_dim:
            raise PreconditionError("barycentric solve needs a full-dimensional cone")
        adj = zip(*adjugate(self.gens))
        if self.det > 0:
            return tuple(adj)
        return tuple(tuple(-x for x in row) for row in adj)

    def coords(self, v):
        """Integer numerators of v's coordinates over |det|, or None.

        Returns the tuple nums of integers with sum(nums[j] * gens[j]) ==
        |det| * v when every nums[j] >= 0, that is when v lies in this
        full-dimensional cone, else None.
        """
        nums = []
        for row in self._inward_adjugate:
            x = sum(map(mul, row, v))
            if x < 0:
                return None
            nums.append(x)
        return tuple(nums)

    def _star_piece(self, j: int, v, nums) -> Cone:
        """The cone spanned by the facet opposite gens[j], then v, unchecked.

        v is a primitive vector of this full-dimensional cone with numerators
        ``nums = coords(v)`` and nums[j] > 0.  Replacing gens[j] by v
        multiplies det by lambda_j = nums[j] / |det|, so the piece has |det|
        nums[j], and the rank-one update of the inverse gives its inward
        adjugate from this cone's rows B: B_j for v, and (nums[j] B_k -
        nums[k] B_j) / |det| for the others, an exact division.  Moving v from
        position j to the end takes n - 1 - j transpositions.
        """
        d = abs(self.det)
        rows = self._inward_adjugate
        b_j, n_j = rows[j], nums[j]
        adj = [
            tuple((n_j * x - n_k * y) // d for x, y in zip(row, b_j))
            for k, (row, n_k) in enumerate(zip(rows, nums))
            if k != j
        ]
        adj.append(b_j)
        flip = (self.det < 0) != ((len(nums) - 1 - j) % 2 == 1)
        return trusted(
            Cone,
            gens=self.gens[:j] + self.gens[j + 1 :] + (v,),
            det=-n_j if flip else n_j,
            _inward_adjugate=tuple(adj),
        )

    def barycentric(self, v):
        """Exact coordinates of v in this full-dimensional cone, or None.

        Returns the tuple of Fractions lam with sum(lam_j * gens[j]) == v when
        all lam_j >= 0, else None: the ``coords`` numerators over |det|.
        """
        nums = self.coords(v)
        if nums is None:
            return None
        d = abs(self.det)
        return tuple(Fraction(x, d) for x in nums)

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
        adj = self._inward_adjugate
        # columns of G^{-1} reduced mod 1
        gens_frac = []
        for j in range(n):
            col = tuple(Fraction(adj[i][j], d) % 1 for i in range(n))
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


class BarycentricResult(namedtuple("BarycentricResult", "cone ray_indices nums")):
    """A maximal cone containing the query plus exact coordinates in it.

    ``ray_indices`` is the cone's key in its fan, and ``nums`` are the
    coordinates as integers over the cone's |det|, as ``Cone.coords``
    returns them.  A tuple, so building one fills no instance dict.
    """

    __slots__ = ()


@record
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

    @cached_property
    def _arcs(self) -> tuple:
        """The cones of a 2-D fan as arcs (lo, hi) of ray indices, by angle.

        lo is the generator of smaller angle: the first of the cone's key
        exactly when det > 0.  Going from each arc's hi to the arc with that
        lo walks a chain of adjacent cones, each step turning
        counterclockwise inside the quadrant, so a chain runs in angular
        order.  The chains of a partial fan follow the angles y / (x + y) of
        their first rays.  Overlapping cones are refused: they repeat a lo,
        leave an arc off every chain or make two chains interleave.
        """
        rays = self.rays
        after = {}  # lo -> hi
        for (i, j), cone in zip(self.cones, self.max_cones):
            if cone.det > 0:
                after[i] = j
            else:
                after[j] = i
        starts = set(after).difference(after.values())
        arcs = []
        for lo in sorted(starts, key=lambda i: Fraction(rays[i][1], sum(rays[i]))):
            if arcs:
                (a, b), (c, d) = rays[arcs[-1][1]], rays[lo]
                if a * d <= b * c:  # this chain starts before the last ended
                    break
            while lo in after:
                arcs.append((lo, after[lo]))
                lo = after[lo]
        if len(arcs) != len(self.cones):
            raise PreconditionError("the cones of the fan overlap")
        return tuple(arcs)

    @cached_property
    def _first_cone_of_ray(self) -> dict:
        """Ray index -> position of the first cone (canonical order) it spans."""
        first = {}
        for pos, idx in enumerate(self.cones):
            for i in idx:
                first.setdefault(i, pos)
        return first

    def locate(self, v) -> BarycentricResult:
        """Find a maximal cone containing v with exact coordinates.

        Ties on shared faces go to the lexicographically-first cone by sorted
        ray indices (the cones are stored in that order).  A ray of the fan is
        answered from a table: where cones meet in common faces, as in every
        fan built by star subdivision or accepted by ``from_json``, the cones
        containing a ray are exactly those it spans, and its coordinates there
        are a unit vector, numerators |det| and 0.  Any other vector, and a
        ray that spans no cone, is found by scanning the cones in order; only
        such a vector is validated, since a ray of the fan already was.
        """
        i = self.ray_index.get(v) if isinstance(v, tuple) else None
        pos = self._first_cone_of_ray.get(i)
        if pos is not None:
            idx = self.cones[pos]
            cone = self.max_cones[pos]
            d = abs(cone.det)
            nums = tuple(d if k == i else 0 for k in idx)
            return BarycentricResult(cone, idx, nums)
        vec = lattice_vec(v)
        if len(vec) != self.n:
            raise PreconditionError("query dimension mismatch")
        if all(e == 0 for e in vec):
            raise PreconditionError("cannot locate the zero vector")
        if any(e < 0 for e in vec):
            raise PreconditionError(f"{vec} is outside the positive orthant")
        for idx, cone in zip(self.cones, self.max_cones):
            nums = cone.coords(vec)
            if nums is not None:
                return BarycentricResult(cone, idx, nums)
        raise InvariantViolation(
            f"fan does not cover the orthant: no cone contains {vec}"
        )

    @cached_property
    def subdivision_defect(self) -> str | None:
        """Why the cones fail to subdivide the orthant, or None if they do.

        The cones subdivide the orthant when every ray spans a cone and
        (1) every facet either lies in a coordinate hyperplane and bounds
        one cone, or bounds exactly two cones whose apexes lie on opposite
        sides of it, and (2) the cross-sections of the cones with the simplex
        sum x_i = 1 fill it: sum |det C| / prod_j |g_j|_1 = 1.  By (1) the
        number of cones over a generic point is the same across every facet,
        hence constant on the orthant; by (2) that number is 1.
        """
        rays = self.rays
        cones = self.max_cones  # rejects cones with dependent generators
        unused = set(range(len(rays))).difference(*self.cones)
        if unused:
            return f"ray {rays[min(unused)]} spans no cone"
        apexes = {}  # facet (sorted ray indices) -> apex ray indices
        for idx in self.cones:
            for j, apex in enumerate(idx):
                apexes.setdefault(idx[:j] + idx[j + 1 :], []).append(apex)
        for facet, tops in apexes.items():
            gens = [rays[i] for i in facet]
            # on the boundary when some coordinate is 0 on every generator;
            # for n = 1 the facet is empty and lies there too
            if not gens or not all(map(any, zip(*gens))):
                if len(tops) != 1:
                    return f"boundary facet {gens} bounds {len(tops)} cones"
                continue
            if len(tops) != 2:
                return f"interior facet {gens} bounds {len(tops)} cones, not 2"
            normal = cofactor_normal(gens)
            a = sum(map(mul, normal, rays[tops[0]]))
            b = sum(map(mul, normal, rays[tops[1]]))
            if (a > 0) == (b > 0):
                return f"the two cones on facet {gens} overlap"
        # the sum over L, the lcm of the norm products, in integers
        norms = [prod(map(sum, cone.gens)) for cone in cones]
        den = lcm(*norms)
        volume = sum(abs(cone.det) * (den // q) for cone, q in zip(cones, norms))
        if volume != den:
            filled = format_rat(Fraction(volume, den))
            return f"the cones fill {filled} of the orthant, not all of it"
        return None

    def to_json(self) -> dict:
        # the writer renders a tuple as it renders a list
        return {"n": self.n, "rays": self.rays, "cones": self.cones}

    @classmethod
    def from_json(cls, data: dict) -> "Fan":
        """Read a fan and check that its cones subdivide the orthant."""
        try:
            fan = cls(
                n=parse_int(data["n"], "n"),
                rays=tuple(tuple(parse_int(x, "rays") for x in r) for r in data["rays"]),
                cones=tuple(tuple(parse_int(i, "cones") for i in c) for c in data["cones"]),
            )
        except (KeyError, TypeError) as exc:
            raise PreconditionError(f"malformed fan JSON: {exc}") from exc
        defect = fan.subdivision_defect
        if defect is not None:
            raise PreconditionError(f"not a subdivision of the orthant: {defect}")
        return fan


def orthant_fan(n: int) -> Fan:
    """The undivided orthant: rays e_1..e_n, one maximal cone."""
    _check_dim(n)
    rays = tuple(
        tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
    )
    return Fan(n=n, rays=rays, cones=(tuple(range(n)),))


def _subdivision_ray(fan: Fan, r) -> tuple:
    """The primitive vector of a star subdivision of the fan at r."""
    vec = lattice_vec(r)
    if len(vec) != fan.n:
        raise PreconditionError("subdivision ray dimension mismatch")
    if all(e == 0 for e in vec):
        raise PreconditionError("cannot subdivide at the zero vector")
    if any(e < 0 for e in vec):
        raise PreconditionError(f"{vec} is outside the positive orthant")
    return primitive_part(vec)


def _subdivide_all(fan: Fan, vecs) -> Fan:
    """Star-subdivide at each primitive vector in order, building one fan.

    The result equals the chain of one-ray star subdivisions.  A mutable cone
    table carries the chain, with the set of cones each ray spans and, for
    every pending vector, a home: a current cone containing it, with its
    coordinates there.  The cones containing the next vector v are those
    spanned by every ray of its support in its home (the generators with
    positive coordinate): v lies in the relative interior of that face, and
    cones of a fan meet in common faces.  Each such cone C is replaced by one
    piece per support ray s, spanned by v and the facet of C opposite s and
    built from C's determinant and adjugate (``Cone._star_piece``); the
    pending vectors homed in C are then re-homed among those pieces only.
    The initial homes are found by one scan of the fan, first cone first, and
    a vector in no cone becomes a ray of no cone, as the chain makes it.

    A 2-D fan is subdivided in angular order instead (``_subdivide_surface``):
    there a fan is its arcs sorted by angle, one bisection places each vector
    and one split replaces one arc by two, where the table would keep its
    span sets, build each piece's adjugate and re-home the split cone's
    pending vectors.
    """
    known = set(fan.ray_set)
    pending = []
    for v in vecs:
        if v not in known:
            known.add(v)
            pending.append(v)
    if not pending:
        return fan
    if fan.n == 2:
        return _subdivide_surface(fan, pending)
    rays = list(fan.rays)
    cones = dict(zip(fan.cones, fan.max_cones))
    spans = [set() for _ in rays]  # ray index -> keys of the cones it spans
    for idx in fan.cones:
        for i in idx:
            spans[i].add(idx)
    home = {}  # pending position -> (cone key, coordinate numerators there)
    homed = {}  # cone key -> pending positions homed there
    for pos, v in enumerate(pending):
        for idx, cone in cones.items():
            nums = cone.coords(v)
            if nums is not None:
                home[pos] = (idx, nums)
                homed.setdefault(idx, []).append(pos)
                break
    for pos, v in enumerate(pending):
        r_idx = len(rays)
        rays.append(v)
        spans.append(set())
        if pos not in home:
            continue
        idx, at_home = home.pop(pos)
        support = [i for i, x in zip(idx, at_home) if x > 0]
        for old in set.intersection(*(spans[i] for i in support)):
            cone = cones.pop(old)
            at = at_home if old == idx else cone.coords(v)
            for i in old:
                spans[i].discard(old)
            pieces = []
            for s in support:
                j = old.index(s)
                piece = old[:j] + old[j + 1 :] + (r_idx,)
                cones[piece] = cone._star_piece(j, v, at)
                for k in piece:
                    spans[k].add(piece)
                pieces.append(piece)
            for q in homed.pop(old, ()):
                if q not in home:
                    continue
                for piece in pieces:
                    nums = cones[piece].coords(pending[q])
                    if nums is not None:
                        home[q] = (piece, nums)
                        homed.setdefault(piece, []).append(q)
                        break
                else:
                    raise InvariantViolation(
                        f"{pending[q]} left its cone {old} during subdivision"
                    )
    # every key is sorted: a piece's key ends with its new, largest ray index
    keys = tuple(sorted(cones))
    return trusted(
        Fan,
        n=fan.n,
        rays=tuple(rays),
        cones=keys,
        max_cones=tuple(cones[c] for c in keys),
    )


def _subdivide_surface(fan: Fan, pending) -> Fan:
    """``_subdivide_all`` in dimension 2: the arcs in angular order.

    A 2-D fan is its cones as arcs (lo, hi) sorted by angle (``Fan._arcs``).
    A new primitive vector v is no existing ray, so it is parallel to none
    and lies strictly inside one arc or in a gap between arcs.  Bisecting on
    the sign of the cross product of v with each arc's lo ray finds the last
    arc starting before v; v splits it when it also ends after v, into the
    cones (lo, v) and (v, hi).  A vector in a gap becomes a ray of no cone,
    as the one-ray chain makes it.  Only the cones left at the end are
    built, each from its two rays and its determinant, with its adjugate
    left to be computed where it is used.
    """
    rays = list(fan.rays)
    arcs = list(fan._arcs)
    cones = dict(zip(fan.cones, fan.max_cones))
    for v in pending:
        r = len(rays)
        rays.append(v)
        x, y = v
        # first arc whose lo ray lies after v: cross(v, lo) > 0
        a, b = 0, len(arcs)
        while a < b:
            mid = (a + b) // 2
            p, q = rays[arcs[mid][0]]
            if x * q > y * p:
                b = mid
            else:
                a = mid + 1
        if not a:
            continue
        lo, hi = arcs[a - 1]
        p, q = rays[hi]
        if x * q > y * p:  # v lies before hi, inside the arc
            arcs[a - 1 : a] = (lo, r), (r, hi)
            del cones[(lo, hi) if lo < hi else (hi, lo)]
            cones[lo, r] = cones[hi, r] = None
    keys = tuple(sorted(cones))
    max_cones = []
    for key in keys:
        cone = cones[key]
        if cone is None:
            g, h = rays[key[0]], rays[key[1]]
            cone = trusted(Cone, gens=(g, h), det=g[0] * h[1] - g[1] * h[0])
        max_cones.append(cone)
    return trusted(
        Fan,
        n=2,
        rays=tuple(rays),
        cones=keys,
        max_cones=tuple(max_cones),
        _arcs=tuple(arcs),
    )


def star_subdivide(fan: Fan, r) -> Fan:
    """Star subdivision at a ray through r (r is made primitive internally).

    Every maximal cone containing r is replaced by the cones spanned by r
    together with each facet not containing r; cones not containing r are
    kept.  Subdividing at an existing ray returns the fan unchanged.  This is
    the one-ray case of the batched insertion behind ``insert_rays``: the
    kept cones enter the new fan as the parent's own ``Cone`` objects, and
    the cones containing r are read off the face of the first cone found to
    contain it, not tested one by one.
    """
    return _subdivide_all(fan, [_subdivision_ray(fan, r)])


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


def insert_rays(fan: Fan, vecs) -> Fan:
    """Star-subdivide at each v in order (skipping existing rays), then resolve.

    The vecs must be primitive vectors of the orthant of the fan's
    dimension, such as a reduction's cut valuations; they are not checked
    again.  All of them go into the fan in one batched insertion, which
    builds one ``Fan``; resolution then runs one star subdivision per step.
    """
    current = resolve(_subdivide_all(fan, vecs))
    for v in vecs:
        if v not in current.ray_set:
            raise InvariantViolation(f"requested ray {v} missing after resolve")
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
