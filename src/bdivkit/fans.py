"""Simplicial fans subdividing the positive orthant.

A fan here is a simplicial subdivision of the closed positive orthant of
``R^n``: a list of primitive integer rays together with full-dimensional
cones (given as sorted tuples of ray indices) whose union covers the orthant.
A fan's rays are read by ``exact.valuation`` in its constructor, and a
vector to locate by ``exact.orthant_vector``.  A cone is a set of the fan's
rays (Fulton, Toric Varieties, 1.4): ``Fan.max_cones`` builds each one
unchecked from rays already read, and the subdivision check refuses a cone
of dependent generators, so ``Cone`` reads and checks nothing.
Star subdivision at a primitive vector models a weighted blow-up.  Rays
enter a fan only through ``insert_rays(n, vecs)``, which subdivides the
undivided orthant (``orthant_fan(n)``, the local model, affine n-space with
its SNC boundary): it star-subdivides at the given vectors and then resolves
the fan to a smooth one in the same pass, inserting the least
fundamental-parallelepiped point of the first non-smooth cone, as it inserts
a given vector, until every cone is smooth.  The orthant's one cone is the
identity, so a vector's coordinates there are the vector itself.  All linear
algebra is exact over the integers and rationals, and comes from the kernel
in ``exact`` (determinants, adjugates and cofactor normals); this module
carries none of its own.

The coordinates of a lattice vector v in a full-dimensional cone are kept as
integers: ``Cone.coords`` returns numerators over the cone's |det| (the rows
of the adjugate, with the sign of det folded in, applied to v), so v is in
the cone exactly when every numerator is >= 0.  ``Fan.locate`` returns a
location, a ``BarycentricResult``: a plain tuple (cone, ray_indices, nums)
with those field names, holding the numerators over |det| of the first cone
that a scan finds to contain v.  On a smooth cone |det| = 1 and the numerators are the coordinates themselves.
No coordinate is a ``Fraction``: only ``Cone.barycentric`` returns them, and
the other ``Fraction`` here is the share of the orthant that
``subdivision_defect`` reports unfilled.  The parallelepiped points are
integer residues mod |det| too.

A 2-D fan is subdivided in angular order: its cones are arcs between
consecutive rays of the quadrant, sorted by angle, and a new ray finds the
arc it splits by bisection on integer cross products.  Every surface cut
inserts its valuations and its resolution pivots this way, with no search
over the cones, and builds no ``Cone``: each pivot comes from a closed form
in the two rays of its arc.  A 2-D fan carries its rays and its cone keys,
and builds its ``Cone`` objects only when something asks for them.  It is
checked by one walk along its cones (``Fan.subdivision_defect``): orient
each cone by the sign of its rays' cross product, start at the ray (1, 0)
and follow each cone from its lower ray to its upper one.  The cones
subdivide the quadrant exactly when the walk reaches (0, 1) after
len(cones) steps and there are len(rays) - 1 cones.  Every step turns
counterclockwise, so the walk meets the rays in strictly increasing angle;
when it takes every cone and meets every ray on its way from (1, 0) to
(0, 1), the cones tile the quadrant with disjoint interiors.  Higher
dimensions keep a cone table that finds the cones containing a new ray
through the face it lies on, and the facet and volume test.

Dimensions are capped at 6: cone and parallelepiped enumeration costs grow
quickly and nothing in this toolkit needs more.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property
from heapq import heapify, heappop, heappush
from math import lcm, prod
from operator import mul

from .exact import (
    InvariantViolation,
    PreconditionError,
    adjugate,
    cofactor_normal,
    determinant,
    format_rat,
    orthant_vector,
    parse_int,
    parse_int_list,
    parse_list,
    record,
    trusted,
    valuation,
)

MAX_DIM = 6


def _check_dim(n: int) -> None:
    if n < 1:
        raise PreconditionError("dimension must be >= 1")
    if n > MAX_DIM:
        raise PreconditionError(f"dimension {n} exceeds the supported cap {MAX_DIM}")


# ---------------------------------------------------------------------------
# cones


@record
class Cone:
    """Full-dimensional simplicial cone spanned by n primitive, independent
    rays of the orthant of R^n: the rays of a fan, which reads and checks
    them (``Fan.max_cones``), so the constructor checks nothing."""

    gens: tuple

    @cached_property
    def det(self) -> int:
        # det(G^T) = det(G), from the kernel's closed forms up to 3 x 3
        return determinant(self.gens)

    @cached_property
    def _inward_adjugate(self) -> tuple:
        # rows of sign(det) adj(G), G the matrix with columns gens, so row .
        # v is |det| times v's coordinate; adj(G) is the transpose of the
        # adjugate of gens, and its row j the cofactor normal of the facet
        # opposite gens[j], up to sign
        adj = zip(*adjugate(self.gens))
        if self.det > 0:
            return tuple(adj)
        return tuple(tuple(-x for x in row) for row in adj)

    def coords(self, v):
        """Integer numerators of v's coordinates over |det|, or None.

        Returns the tuple nums of integers with sum(nums[j] * gens[j]) ==
        |det| * v when every nums[j] >= 0, that is when v lies in this cone,
        else None.
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

        v is a primitive vector of this cone with numerators
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
        """Exact coordinates of v in this cone, or None.

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

        They are the |det| - 1 nontrivial residues of Z^n modulo the
        generators' sublattice.  Their coordinates are numerators t over
        d = |det| (``coords``), so they form the subgroup of (Z/d)^n that the
        columns of the inward adjugate generate, closed here in integers at
        a cost proportional to d; each t gives the point sum t_j gens[j] / d.
        """
        d = abs(self.det)
        steps = [tuple(x % d for x in col) for col in zip(*self._inward_adjugate)]
        zero = (0,) * len(steps)
        group = {zero}
        frontier = [zero]
        while frontier:
            nxt = []
            for t in frontier:
                for step in steps:
                    u = tuple((a + b) % d for a, b in zip(t, step))
                    if u not in group:
                        group.add(u)
                        nxt.append(u)
            frontier = nxt
        group.remove(zero)
        rows = tuple(zip(*self.gens))
        return sorted(tuple(sum(map(mul, row, t)) // d for row in rows) for t in group)


# ---------------------------------------------------------------------------
# fans


class BarycentricResult(namedtuple("BarycentricResult", "cone ray_indices nums")):
    """A maximal cone containing the query plus exact coordinates in it.

    ``ray_indices`` is the cone's key in its fan, and ``nums`` are the
    coordinates as integers over the cone's |det|, as ``Cone.coords``
    returns them.  A tuple, so building one fills no instance dict.
    """

    __slots__ = ()


def _upper_rays(rays, cones) -> dict:
    """lo -> hi for each 2-D cone (i, j): lo is the ray of smaller angle.

    lo is i exactly when the cross product of rays i and j is positive.  A
    second cone with the same lo overwrites the first, so the map holds
    fewer entries than there are cones exactly when two cones start at one
    ray.
    """
    after = {}
    for i, j in cones:
        (a, b), (c, d) = rays[i], rays[j]
        if a * d > b * c:
            after[i] = j
        else:
            after[j] = i
    return after


@record
class Fan:
    """Simplicial subdivision of the positive orthant of dimension n."""

    n: int
    rays: tuple
    cones: tuple

    def __post_init__(self):
        n = parse_int(self.n, "n")
        _check_dim(n)
        rays = tuple(valuation(r, n, "rays") for r in parse_list(self.rays, "rays"))
        if len(set(rays)) != len(rays):
            raise PreconditionError("duplicate rays")
        cones = tuple(sorted(
            tuple(sorted(parse_int_list(c, "cones"))) for c in parse_list(self.cones, "cones")
        ))
        for c in cones:
            if len(c) != n:
                raise PreconditionError("maximal cones must be full-dimensional")
            if len(set(c)) != len(c):
                raise PreconditionError("repeated ray index in a cone")
            for i in c:
                if not 0 <= i < len(rays):
                    raise PreconditionError(f"cone refers to missing ray index {i}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "cones", cones)

    @cached_property
    def ray_index(self) -> dict:
        return {r: i for i, r in enumerate(self.rays)}

    @cached_property
    def max_cones(self) -> tuple:
        """The cones as ``Cone`` objects, in the order of their keys.

        Built here, on demand, each with ``trusted`` from the rays its key
        names, which the constructor has read; each determinant is computed
        on first use.  A cone of dependent generators is not refused here:
        ``subdivision_defect`` names it.
        """
        rays = self.rays
        return tuple(trusted(Cone, gens=tuple(rays[i] for i in c)) for c in self.cones)

    def locate(self, v) -> BarycentricResult:
        """Find a maximal cone containing v with exact coordinates.

        v is read by ``orthant_vector``, any nonzero vector of the orthant,
        then the cones are scanned in order, so ties on shared faces go to the
        lexicographically-first cone by sorted ray indices (the cones are
        stored in that order).
        """
        vec = orthant_vector(v, self.n, "v")
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

        A 2-D fan is decided by one walk (``_walks_the_quadrant``).  Orient
        each cone by the sign of its rays' cross product, start at the ray
        (1, 0) and follow each cone from its lower ray to its upper one.  The
        cones subdivide the quadrant exactly when the walk reaches (0, 1)
        after len(cones) steps and len(cones) == len(rays) - 1.  Every step
        turns counterclockwise inside the quadrant, so the walk meets the
        rays in strictly increasing angle and never returns to one.  Having
        taken len(cones) steps from distinct rays, each the lower ray of one
        cone only, it used every cone once and met all len(cones) + 1 =
        len(rays) rays; going from (1, 0) to (0, 1), its cones tile the
        quadrant with disjoint interiors, and every ray spans one.
        Conversely, where the cones subdivide the quadrant and every ray
        spans a cone, no ray lies inside another cone, so the cones are the
        arcs between rays adjacent in angle, and the walk takes each.

        A fan the walk refuses, and a fan of any other dimension, goes to the
        facet and volume test (``_facet_volume_defect``), which words the
        message.
        """
        if self.n == 2 and self._walks_the_quadrant():
            return None
        return self._facet_volume_defect()

    def _walks_the_quadrant(self) -> bool:
        """The walk of ``subdivision_defect`` along a 2-D fan's cones: True
        when it goes from (1, 0) to (0, 1) through every cone and ray."""
        rays = self.rays
        after = _upper_rays(rays, self.cones)
        at, steps = self.ray_index.get((1, 0)), 0
        while at in after:
            at, steps = after[at], steps + 1
        return 0 < steps == len(self.cones) == len(rays) - 1 and rays[at] == (0, 1)

    def _facet_volume_defect(self) -> str | None:
        """The facet and volume test of ``subdivision_defect``, any dimension.

        A cone of linearly dependent generators (det 0) is named first.
        Then the cones subdivide the orthant when every ray spans a cone and
        (1) every facet either lies in a coordinate hyperplane and bounds
        one cone, or bounds exactly two cones whose apexes lie on opposite
        sides of it, and (2) the cross-sections of the cones with the simplex
        sum x_i = 1 fill it: sum |det C| / prod_j |g_j|_1 = 1.  By (1) the
        number of cones over a generic point is the same across every facet,
        hence constant on the orthant; by (2) that number is 1.
        """
        rays = self.rays
        cones = self.max_cones
        for cone in cones:
            if cone.det == 0:
                return f"the generators of cone {list(cone.gens)} are linearly dependent"
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
            fan = cls(n=data["n"], rays=data["rays"], cones=data["cones"])
        except (KeyError, TypeError) as exc:
            raise PreconditionError(f"malformed fan JSON: {exc}") from exc
        defect = fan.subdivision_defect
        if defect is not None:
            raise PreconditionError(f"not a subdivision of the orthant: {defect}")
        return fan


@cache
def orthant_fan(n: int) -> Fan:
    """The undivided orthant: rays e_1..e_n, one maximal cone.

    Built once per n: a fan is an immutable value, and no caller mutates
    its cached ``ray_index`` or ``max_cones``.
    """
    _check_dim(n)
    rays = tuple(
        tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
    )
    return Fan(n=n, rays=rays, cones=(tuple(range(n)),))


def insert_rays(n: int, vecs) -> Fan:
    """Star-subdivide the orthant of dimension n at each v in order, passing
    over a v that is a ray already, then resolve, building one fan.

    The vecs must be primitive vectors of the orthant of dimension n, such
    as a reduction's cut valuations; they are not checked again.  The result
    equals the chain of one-ray star subdivisions of ``orthant_fan(n)`` at
    the vecs, then at one pivot after another while a cone is not smooth:
    the least point of the fundamental parallelepiped of the first
    non-smooth cone in key order.  That point is primitive (were it m q,
    m > 1, q would be a smaller one), and its coordinates t_j are below 1,
    so the piece replacing a generator g_j, t_j > 0, has |det| t_j times the
    cone's.  A cone sharing the pivot's face gives it the same coordinates,
    so every pivot lowers |det| on each piece it makes, and resolution ends.
    Pivots go in as the vecs do, and a heap of non-smooth cone keys stands
    for the scan: a split cone's key never returns (each new key holds the
    new ray's index), so the least key on the heap still in the fan names
    the first non-smooth cone, and the rays come in the chain's order.

    A mutable cone table carries the insertion, with the set of cones each
    ray spans and, for every pending vector, a home: a current cone
    containing it, with its coordinates there.  The cones containing the
    next vector v are those spanned by every ray of its support in its home
    (the generators with positive coordinate): v lies in the relative
    interior of that face, and cones of a fan meet in common faces.  Each
    such cone C is replaced by one piece per support ray s, spanned by v and
    the facet of C opposite s and built from C's determinant and adjugate
    (``Cone._star_piece``); the pending vectors homed in C are then
    re-homed among those pieces only.  Every vector starts at home in the
    orthant's one cone, with itself as its coordinates.  A pivot's home is
    its cone.  A 2-D fan is its arcs in angular order instead
    (``_subdivide_surface``).
    """
    fan = orthant_fan(n)
    known = set(fan.ray_index)
    pending = []
    for v in vecs:
        if v not in known:
            known.add(v)
            pending.append(v)
    if n == 2:
        return _subdivide_surface(pending, known)
    rays = list(fan.rays)
    [whole] = fan.cones
    cones = {whole: fan.max_cones[0]}
    spans = [{whole} for _ in rays]  # ray index -> keys of the cones it spans
    home = {pos: (whole, v) for pos, v in enumerate(pending)}  # position -> (key, nums)
    homed = {whole: list(home)}  # cone key -> pending positions homed there
    for v, (idx, at_home) in _vectors_then_pivots(pending, home, cones, spans, known):
        r_idx = len(rays)
        rays.append(v)
        spans.append(set())
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
        n=n,
        rays=tuple(rays),
        cones=keys,
        max_cones=tuple(cones[c] for c in keys),
    )


def _vectors_then_pivots(pending, home, cones, spans, known):
    """The pending vectors, then one pivot at a time, each with its home
    (cone key, coordinate numerators), for ``insert_rays``.

    Once the vectors are in, a heap holds the keys of the non-smooth cones,
    and of cones split since; the least key still in ``cones`` is resolved
    next, and the non-smooth pieces around its pivot, ``spans[-1]`` once
    the table has inserted it, go onto the heap.
    """
    for pos, v in enumerate(pending):
        yield v, home.pop(pos)
    singular = [idx for idx, cone in cones.items() if not cone.is_smooth()]
    heapify(singular)
    while singular:
        idx = heappop(singular)
        cone = cones.get(idx)
        if cone is not None:
            pivot = _new_pivot(known, cone.parallelepiped_points()[0])
            yield pivot, (idx, cone.coords(pivot))
            for piece in spans[-1]:
                if not cones[piece].is_smooth():
                    heappush(singular, piece)


def _new_pivot(known: set, pivot) -> tuple:
    """Add a pivot to the known rays.

    A pivot is never a ray: it lies in the relative interior of a face of
    its cone, and cones of a subdivision of the orthant meet in common
    faces.  Finding it among the known rays is an invariant breach that no
    input reaches; were it passed over, the ray would be added twice.
    """
    if pivot in known:
        raise InvariantViolation(f"resolution pivot {pivot} is already a ray of the fan")
    known.add(pivot)
    return pivot


def _subdivide_surface(pending, known) -> Fan:
    """``insert_rays`` in dimension 2: the arcs in angular order.

    The quadrant is one arc (lo, hi) = ((1, 0), (0, 1)), and each vector
    goes in by ``_split_arc``, which keeps the arcs sorted by angle.
    Resolution then pops the least non-smooth cone key from a heap and
    inserts its arc's pivot (``_arc_pivot``) the same way; the pivot splits
    that arc alone, so every key on the heap is a cone until it is popped.
    The fan is built from its rays and arcs, with no ``Cone``:
    ``Fan.max_cones`` builds them on demand.
    """
    rays = [(1, 0), (0, 1)]
    arcs = [(0, 1)]
    for v in pending:
        _split_arc(rays, arcs, v)
    singular = [(tuple(sorted(arc)), arc) for arc in arcs if _arc_det(rays, arc) > 1]
    heapify(singular)
    while singular:
        lo, hi = heappop(singular)[1]
        pivot = _new_pivot(known, _arc_pivot(rays[lo], rays[hi]))
        for arc in _split_arc(rays, arcs, pivot):
            if _arc_det(rays, arc) > 1:
                heappush(singular, (tuple(sorted(arc)), arc))
    # every arc is a cone, and a new ray's index is the largest of its key
    keys = sorted(tuple(sorted(arc)) for arc in arcs)
    return trusted(Fan, n=2, rays=tuple(rays), cones=tuple(keys))


def _split_arc(rays: list, arcs: list, v) -> tuple:
    """Add the ray v and split the arc it lies inside; return the halves.

    The arcs tile the quadrant from (1, 0) to (0, 1), and v is a vector of
    the quadrant parallel to no ray, so it lies strictly inside one arc: the
    last one starting before v, found by bisecting on the sign of the cross
    product of v with each arc's lo ray.  v splits it into (lo, v) and
    (v, hi).
    """
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
    lo, hi = arcs[a - 1]
    arcs[a - 1 : a] = halves = (lo, r), (r, hi)
    return halves


def _arc_det(rays, arc) -> int:
    """det(lo, hi) of an arc, positive: lo comes first in angle."""
    (a, b), (c, d) = rays[arc[0]], rays[arc[1]]
    return a * d - b * c


def _arc_pivot(g, h) -> tuple:
    """The least nonzero point of the parallelepiped of an arc (g, h).

    Let d = det(g, h) > 1 and u . g = 1 (g is primitive, and g_0 > 0 as g
    comes first in angle).  Then a = -u . h mod d makes h + a g = 0 mod d,
    w = (h + a g) / d is an integer vector, and the nonzero lattice points
    s g + t h, 0 <= s, t < 1, are x_k = k w - floor(k a / d) g for k = 1,
    ..., d - 1, at t = k / d (Fulton, Toric Varieties, 2.6).
    """
    (g0, g1), (h0, h1) = g, h
    d = g0 * h1 - g1 * h0
    u1 = pow(g1, -1, g0)
    u0 = (1 - u1 * g1) // g0
    a = -(u0 * h0 + u1 * h1) % d
    w0, w1 = (h0 + a * g0) // d, (h1 + a * g1) // d
    return min((k * w0 - k * a // d * g0, k * w1 - k * a // d * g1) for k in range(1, d))
