"""Simplicial fans subdividing the positive orthant.

A fan here is a simplicial subdivision of the closed positive orthant of
``R^n``: a list of primitive integer rays together with full-dimensional
cones (given as sorted tuples of ray indices) whose union covers the orthant.
Star subdivision at a primitive vector models a weighted blow-up.  Rays
enter a fan only through ``insert_rays``, which star-subdivides at the given
vectors and then resolves the fan to a smooth one in the same pass: it
inserts the least fundamental-parallelepiped point of the first non-smooth
cone, as it inserts a given vector, until every cone is smooth.  All linear
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
the other ``Fraction``s here are the angle key ``Fan._arcs`` sorts chain
starts by and the share of the orthant that ``subdivision_defect`` reports
unfilled.  The parallelepiped points are integer residues mod |det| too.

A 2-D fan is subdivided in angular order: its cones are arcs between
consecutive rays of the quadrant, sorted by angle and kept with the fan, and
a new ray finds the arc it splits by bisection on integer cross products.
Every surface cut inserts its valuations and its resolution pivots this way,
with no search over the cones, and builds no ``Cone``: each pivot comes from
a closed form in the two rays of its arc.  A 2-D fan carries its rays, its
cone keys and its arcs, and builds its ``Cone`` objects only when something
asks for them.  It is checked by one walk along its arcs
(``Fan.subdivision_defect``): orient each cone by the sign of its rays'
cross product, start at the ray (1, 0) and follow each cone from its lower
ray to its upper one.  The cones subdivide the quadrant exactly when the
walk reaches (0, 1) after len(cones) steps and there are len(rays) - 1
cones.  Every step turns counterclockwise, so the walk meets the rays in
strictly increasing angle; when it takes every cone and meets every ray on
its way from (1, 0) to (0, 1), the cones tile the quadrant with disjoint
interiors.  Higher dimensions keep a cone table that finds the cones
containing a new ray through the face it lies on, and the facet and volume
test.

Dimensions are capped at 6: cone and parallelepiped enumeration costs grow
quickly and nothing in this toolkit needs more.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
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
    record,
    trusted,
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
    rays of the orthant of R^n."""

    gens: tuple

    def __post_init__(self):
        gens = tuple(lattice_vec(g) for g in self.gens)
        n = len(gens)
        _check_dim(n)
        for g in gens:
            if len(g) != n:
                raise PreconditionError(f"a cone needs {n} generators of length {n}, got {g}")
            if any(e < 0 for e in g):
                raise PreconditionError(f"generator {g} leaves the positive orthant")
            if not is_primitive(g):
                raise PreconditionError(f"generator {g} is not primitive")
        object.__setattr__(self, "gens", gens)
        # det(G^T) = det(G): the integer determinant, cached here, decides
        # independence
        if self.det == 0:
            raise PreconditionError("cone generators are linearly dependent")

    @cached_property
    def det(self) -> int:
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


def _arc_cone(g, h) -> Cone:
    """The 2-D cone spanned by g and h, distinct primitive vectors of the
    quadrant, built unchecked with their cross product as its determinant.

    Two such vectors are never parallel, so the determinant is never 0.
    """
    return trusted(Cone, gens=(g, h), det=g[0] * h[1] - g[1] * h[0])


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
    def ray_index(self) -> dict:
        return {r: i for i, r in enumerate(self.rays)}

    @cached_property
    def max_cones(self) -> tuple:
        """The cones as ``Cone`` objects, in the order of their keys.

        A 2-D fan builds them here, on demand, each with ``trusted`` from its
        two rays and their cross product (``_arc_cone``): its rays are
        distinct primitive vectors of the quadrant and each cone a pair of
        distinct rays, so no cone is degenerate.  In other dimensions each
        cone is validated, which refuses dependent generators.
        """
        rays = self.rays
        if self.n == 2:
            return tuple(_arc_cone(rays[i], rays[j]) for i, j in self.cones)
        return tuple(Cone(tuple(rays[i] for i in c)) for c in self.cones)

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
        after = _upper_rays(rays, self.cones)
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

    def locate(self, v) -> BarycentricResult:
        """Find a maximal cone containing v with exact coordinates.

        v is validated, then the cones are scanned in order, so ties on shared
        faces go to the lexicographically-first cone by sorted ray indices
        (the cones are stored in that order).
        """
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


def insert_rays(fan: Fan, vecs) -> Fan:
    """Star-subdivide at each v in order (skipping existing rays), then
    resolve, building one fan; ``insert_rays(fan, ())`` only resolves.

    The vecs must be primitive vectors of the orthant of the fan's
    dimension, such as a reduction's cut valuations; they are not checked
    again.  The result equals the chain of one-ray star subdivisions at the
    vecs, then at one pivot after another while a cone is not smooth: the
    least point of the fundamental parallelepiped of the first non-smooth
    cone in key order.  That point is primitive (were it m q, m > 1, q would
    be a smaller one), and its coordinates t_j are below 1, so the piece
    replacing a generator g_j, t_j > 0, has |det| t_j times the cone's.  A
    cone sharing the pivot's face gives it the same coordinates, so every
    pivot lowers |det| on each piece it makes, and resolution ends.  Pivots
    go in as the vecs do, and a heap of non-smooth cone keys stands for the
    scan: a split cone's key never returns (each new key holds the new
    ray's index), so the least key on the heap still in the fan names the
    first non-smooth cone, and the rays come in the chain's order.

    A mutable cone table carries the insertion, with the set of cones each
    ray spans and, for every pending vector, a home: a current cone
    containing it, with its coordinates there.  The cones containing the
    next vector v are those spanned by every ray of its support in its home
    (the generators with positive coordinate): v lies in the relative
    interior of that face, and cones of a fan meet in common faces.  Each
    such cone C is replaced by one piece per support ray s, spanned by v and
    the facet of C opposite s and built from C's determinant and adjugate
    (``Cone._star_piece``); the pending vectors homed in C are then
    re-homed among those pieces only.  The initial homes are found by one
    scan of the fan, first cone first, and a vector in no cone becomes a
    ray of no cone, as the chain makes it.  A pivot's home is its cone.  A
    2-D fan is its arcs in angular order instead (``_subdivide_surface``).
    """
    known = set(fan.ray_index)
    pending = []
    for v in vecs:
        if v not in known:
            known.add(v)
            pending.append(v)
    if fan.n == 2:
        return _subdivide_surface(fan, pending, known)
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
    for v, (idx, at_home) in _vectors_then_pivots(pending, home, cones, spans, known):
        r_idx = len(rays)
        rays.append(v)
        spans.append(set())
        if idx is None:
            continue
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


def _vectors_then_pivots(pending, home, cones, spans, known):
    """The pending vectors, then one pivot at a time, each with its home
    (cone key, coordinate numerators) or (None, None), for ``insert_rays``.

    Once the vectors are in, a heap holds the keys of the non-smooth cones,
    and of cones split since; the least key still in ``cones`` is resolved
    next, and the non-smooth pieces around its pivot, ``spans[-1]`` once
    the table has inserted it, go onto the heap.
    """
    for pos, v in enumerate(pending):
        yield v, home.pop(pos, (None, None))
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
    """Add a pivot to the known rays.  Where cones meet in common faces a
    pivot is no ray; a hand-built fan whose cones overlap, or with a ray of
    no cone inside a cone, could present one, which would be added twice.
    """
    if pivot in known:
        raise InvariantViolation(f"resolution pivot {pivot} is already a ray of the fan")
    known.add(pivot)
    return pivot


def _subdivide_surface(fan: Fan, pending, known) -> Fan:
    """``insert_rays`` in dimension 2: the arcs in angular order.

    A 2-D fan is its cones as arcs (lo, hi) sorted by angle (``Fan._arcs``),
    and each vector goes in by ``_split_arc``.  Resolution then pops the
    least non-smooth cone key from a heap and inserts its arc's pivot
    (``_arc_pivot``) the same way; the pivot splits that arc alone, so every
    key on the heap is a cone until it is popped.  The fan is built from its
    rays and arcs, with no ``Cone``: ``Fan.max_cones`` builds them on demand.
    """
    rays = list(fan.rays)
    arcs = list(fan._arcs)
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
    return trusted(Fan, n=2, rays=tuple(rays), cones=tuple(keys), _arcs=tuple(arcs))


def _split_arc(rays: list, arcs: list, v) -> tuple:
    """Add the ray v and split the arc it lies inside; return the halves.

    v is parallel to no ray, so it lies strictly inside one arc or in a gap.
    Bisecting on the sign of the cross product of v with each arc's lo ray
    finds the last arc starting before v; v splits it into (lo, v) and
    (v, hi) when it also ends after v.  In a gap v is a ray of no cone.
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
    if not a:
        return ()
    lo, hi = arcs[a - 1]
    p, q = rays[hi]
    halves = ()
    if x * q > y * p:  # v lies before hi, inside the arc
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


def is_smooth(fan: Fan) -> bool:
    """True iff every maximal cone has determinant +-1."""
    return all(c.is_smooth() for c in fan.max_cones)


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
