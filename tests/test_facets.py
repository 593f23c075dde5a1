"""Facet verdicts of polyhedra against the LP path.

`sets.in_relative_interior` and `sets.poly_contains` read a polyhedron's
cached integer facets (`Polyhedron.facets`). Every verdict here is compared
with the LP that decided it before (`relative_interior_membership`,
`hull_membership`) on full-dimensional and lower-dimensional polyhedra,
degenerate ones (a single vertex, a vertex with one ray, a segment), rays
that form a line, a whole subspace or the zero vector, and fractional
vertices and probes. Probes include random points, the vertices, strict
and boundary combinations, and points just off the affine hull. Polygons,
whose facets come from the monotone chain of their vertices, are also
compared with the facets of every pair of vertices, and points on a line
or a plane in R^3 and R^4 (`cones._outline`) with the facets of every
subset and the LP's convex hull.

The last section checks the facet normals themselves against the former
cofactor path: the null vector of one elimination (`cones._null_vector`)
against the cofactor vector of D determinants, and `cone_facets` against a
subset path built on that cofactor, on every cone kind and on lifted
polyhedra with rays. It also checks that a dependent cone eliminates its
generators once.
"""

from fractions import Fraction as F
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conedom.sets
from conedom import cones
from conedom.cones import Cone, Facets, cone_facets
from conedom.linalg import hull_membership, relative_interior_membership, vadd, vscale
from conedom.sets import Polyhedron, convex_hull, in_relative_interior, poly_contains
from test_cones import reference_span_solver
from test_sets import reference_hull_vertices

# --- polyhedra of every kind ----------------------------------------------------


def rationals(bound=4):
    return st.builds(F, st.integers(-bound, bound), st.sampled_from((1, 2, 3)))


def vectors(n, bound=4):
    return st.tuples(*[rationals(bound)] * n)


def combos(vectors_, weights):
    """The weighted sum of the vectors, in the dimension of the first."""
    out = tuple(F(0) for _ in vectors_[0])
    for w, v in zip(weights, vectors_):
        out = vadd(out, vscale(w, v))
    return out


@st.composite
def full_dimensional(draw):
    n = draw(st.integers(1, 3))
    vertices = draw(st.lists(vectors(n), min_size=1, max_size=5))
    rays = draw(st.lists(vectors(n, 2), max_size=3))
    return vertices, rays


@st.composite
def planar(draw):
    """Vertices and rays on a plane through a point of R^3."""
    origin, u, w = draw(vectors(3)), draw(vectors(3, 2)), draw(vectors(3, 2))
    small = st.integers(-2, 2)
    vertices = [vadd(origin, combos((u, w), draw(st.tuples(small, small)))) for _ in range(draw(st.integers(1, 4)))]
    rays = [combos((u, w), draw(st.tuples(small, small))) for _ in range(draw(st.integers(0, 2)))]
    return vertices, rays


@st.composite
def degenerate(draw):
    """A single vertex, a vertex with one ray, a segment, rays forming a
    line or a whole subspace, or a zero ray among others."""
    n = draw(st.integers(1, 3))
    v, u = draw(vectors(n)), draw(vectors(n))
    r = draw(vectors(n, 2))
    e = [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
    zero = tuple(F(0) for _ in range(n))
    shapes = {
        "vertex": ([v], []),
        "vertex_and_ray": ([v], [r]),
        "segment": ([v, u], []),
        "line": ([v, u], [r, vscale(F(-1), r)]),
        "subspace": ([v], e + [vscale(F(-1), d) for d in e[:-1]] + [vscale(F(-1, 2), combos(e, [1] * n))]),
        "zero_ray": ([v, u], [zero, r]),
    }
    return shapes[draw(st.sampled_from(sorted(shapes)))]


@st.composite
def probes(draw, vertices, rays):
    """Random points; the vertices; combinations with strictly positive or
    some zero weights, plus ray mass; and such points moved off by a random step."""
    n = len(vertices[0])
    out = draw(st.lists(vectors(n, 5), min_size=1, max_size=4)) + list(vertices)
    weights = st.integers(0, 3)
    for _ in range(6):
        lam = draw(st.lists(weights, min_size=len(vertices), max_size=len(vertices)))
        if not any(lam):
            lam[0] = 1
        z = combos(vertices, [F(c, sum(lam)) for c in lam])
        if rays:
            z = vadd(z, combos(rays, draw(st.lists(weights, min_size=len(rays), max_size=len(rays)))))
        out.append(z)
        out.append(vadd(z, vscale(F(1, draw(st.integers(1, 5))), draw(vectors(n, 1)))))
    return out


def assert_facets_agree_with_the_lp(vertices, rays, points):
    """The facet verdicts equal the LP's. The work cap is lifted, so that the
    shapes with many generators (a subspace in R^3) take the facet path too."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cones, "_MAX_FACET_WORK", 10**9)
        p = Polyhedron.build(vertices, rays)
        assert p.facets is not None
    vs, rs = p.vertices.points, p.rays
    for z in points:
        assert in_relative_interior(p, z) == relative_interior_membership(z, vs, rs), z
        assert poly_contains(p, z) == hull_membership(z, vs, rs).member, z


@settings(max_examples=80, deadline=None)
@given(data=st.data(), shape=full_dimensional())
def test_full_dimensional_polyhedra_with_and_without_rays(data, shape):
    vertices, rays = shape
    assert_facets_agree_with_the_lp(vertices, rays, data.draw(probes(vertices, rays)))


@settings(max_examples=50, deadline=None)
@given(data=st.data(), shape=planar())
def test_polyhedra_on_a_plane_in_three_dimensions(data, shape):
    vertices, rays = shape
    assert_facets_agree_with_the_lp(vertices, rays, data.draw(probes(vertices, rays)))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), shape=degenerate())
def test_degenerate_polyhedra(data, shape):
    vertices, rays = shape
    assert_facets_agree_with_the_lp(vertices, rays, data.draw(probes(vertices, rays)))


def forbid_lps(monkeypatch):
    """Make both LP predicates that `conedom.sets` falls back on raise."""

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved where the facets decide")

    monkeypatch.setattr(conedom.sets, "relative_interior_membership", no_lp)
    monkeypatch.setattr(conedom.sets, "hull_membership", no_lp)


# --- polygons: the monotone-chain branch ---------------------------------------


@st.composite
def polygons(draw):
    """1-12 vertices in the plane and no rays: scattered fractional points,
    points on one line, or a hull with points inside it."""
    kind = draw(st.sampled_from(("scattered", "collinear", "with_interior")))
    if kind == "collinear":
        a, d = draw(vectors(2)), draw(vectors(2, 2))
        steps = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=12, unique=True))
        return [vadd(a, vscale(F(k), d)) for k in steps]
    vertices = draw(st.lists(vectors(2), min_size=1, max_size=12 if kind == "scattered" else 5))
    while kind == "with_interior" and len(vertices) < 12:
        weights = draw(st.lists(st.integers(1, 3), min_size=len(vertices), max_size=len(vertices)))
        vertices.append(combos(vertices, [F(w, sum(weights)) for w in weights]))
    return vertices


def just_beyond_each_pair(vertices):
    """The midpoint of every pair of vertices, pushed a little away from the
    centroid: just outside the polygon when the pair is one of its edges."""
    c = combos(vertices, [F(1, len(vertices))] * len(vertices))
    mids = [combos((a, b), (F(1, 2), F(1, 2))) for i, a in enumerate(vertices) for b in vertices[i + 1 :]]
    return [vadd(m, vscale(F(1, 16), vadd(m, vscale(F(-1), c)))) for m in mids]


@settings(max_examples=120, deadline=None)
@given(data=st.data(), vertices=polygons())
def test_polygons_agree_with_the_lp(data, vertices):
    p = Polyhedron.build(vertices)
    assert p.facets is not None
    vs = p.vertices.points
    for z in data.draw(probes(vertices, [])):
        assert in_relative_interior(p, z) == relative_interior_membership(z, vs, ()), z
        assert poly_contains(p, z) == hull_membership(z, vs).member, z
    for z in just_beyond_each_pair(vs):
        assert poly_contains(p, z) == hull_membership(z, vs).member, z


@settings(max_examples=120, deadline=None)
@given(vertices=polygons())
def test_the_polygon_branch_gives_the_facets_of_every_subset(vertices):
    # Up to 12 vertices, the subsets of every pair stay under the work bound,
    # so both paths apply; with no generators read as homogenized points, the
    # outline is off and the subsets decide.
    found = []
    original = cones._outline

    def recording(generators, rank):
        found.append(original(generators, rank))
        return found[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cones, "_outline", recording)
        facets = Polyhedron.build(vertices).facets
        m.setattr(cones, "_homogenized", lambda generators: False)
        p = Polyhedron.build(vertices)
        assert comb(len(p.vertices), 2) * 3**3 <= cones._MAX_FACET_WORK
        assert p.facets == facets
    # The outline is the polygon's edges exactly when the polygon has an
    # interior, and then each edge gives one facet; points on one line give
    # their two ends, and a single point none. Patched off, it names none.
    outline, off = found
    assert off is None
    edges = outline is not None and len(outline[0]) == 2
    assert edges == (not facets.equations)
    assert outline is None or len(outline) == len(facets.normals)
    assert (outline is None) == (len(p.vertices) == 1)


def test_a_half_step_grid_far_over_the_bound_gets_facets_and_no_lp(monkeypatch):
    # 81 points: the pairs alone would cost C(81, 2) * 3**3 = 87,480, far over
    # the bound; the chain finds the square's four edges among them.
    grid = [(F(i, 2), F(j, 2)) for i in range(9) for j in range(9)]
    assert comb(len(grid), 2) * 3**3 > cones._MAX_FACET_WORK
    probes_ = grid + [(F(7, 3), F(1, 3)), (F(1, 3), F(4)), (F(9, 2), F(0)), (F(-1, 4), F(2)), (F(2), F(17, 4))]
    expected = [
        (relative_interior_membership(z, grid, ()), hull_membership(z, grid).member) for z in probes_
    ]
    p = Polyhedron.build(grid)
    forbid_lps(monkeypatch)
    assert [(in_relative_interior(p, z), poly_contains(p, z)) for z in probes_] == expected
    # The square [0, 4]^2 as rows on (x, y, 1): 4 - x, 4 - y, y and x >= 0.
    assert p.facets == Facets((), ((-1, 0, 4), (0, -1, 4), (0, 1, 0), (1, 0, 0)))
    assert expected[-5:] == [(True, True), (False, True), (False, False), (False, False), (False, False)]


# --- points on a line or a plane in any dimension: the outline ------------------


@st.composite
def flat_sets(draw):
    """1-16 points of R^3 or R^4 on a line or a plane: a base point plus
    small integer combinations of one or two directions."""
    n, r = draw(st.sampled_from((3, 4))), draw(st.sampled_from((1, 2)))
    base, directions = draw(vectors(n)), [draw(vectors(n, 2).filter(any)) for _ in range(r)]
    steps = st.tuples(*[st.integers(-3, 3)] * r)
    return [vadd(base, combos(directions, ks)) for ks in draw(st.lists(steps, min_size=1, max_size=16, unique=True))]


@settings(max_examples=100, deadline=None)
@given(points=flat_sets())
def test_points_on_a_line_or_a_plane_get_every_subsets_facets_and_their_hull_without_an_lp(points):
    # Sixteen points on a plane in R^4 would cost C(16, 2) * 5**3 = 15,000,
    # far over the bound; the outline has no bound, and the reference none.
    p = Polyhedron.build(points)
    vs = p.vertices.integer_view
    assert p.facets == reference_cone_facets(p.dimension + 1, [(*v, vs.scale) for v in vs.points])
    expected = reference_hull_vertices(p.vertices.points)
    with pytest.MonkeyPatch.context() as m:
        forbid_lps(m)
        assert convex_hull(p.vertices).vertices.points == expected


def test_a_tilted_16_by_16_layer_gets_its_facets_and_its_hull_without_an_lp(monkeypatch):
    # The 256 points (i, j, i + j): a plane in R^3, whose pairs would cost
    # C(256, 2) * 4**3 against the bound. Its square [0, 15]^2 reads, on
    # (x, y, z, 1) with x + y - z = 0, as 45 - 3x, 3y, 45 - 3y and 3x >= 0.
    layer = [(i, j, i + j) for i in range(16) for j in range(16)]
    p = Polyhedron.build(layer)
    assert p.facets == Facets(((1, 1, -1, 0),), ((-2, 1, -1, 45), (-1, 2, 1, 0), (1, -2, -1, 45), (2, -1, 1, 0)))
    probes_ = [(F(1, 2), F(7), F(15, 2)), (F(29, 2), F(1, 3), F(89, 6)), (F(0), F(0), F(0)), (F(15), F(7), F(22)),
               (F(1), F(1), F(3)), (F(16), F(0), F(16)), (F(-1, 2), F(3), F(5, 2))]
    vs = p.vertices.points
    expected = [(relative_interior_membership(z, vs, ()), hull_membership(z, vs).member) for z in probes_]
    assert expected == [(True, True)] * 2 + [(False, True)] * 2 + [(False, False)] * 3
    forbid_lps(monkeypatch)
    assert [(in_relative_interior(p, z), poly_contains(p, z)) for z in probes_] == expected
    corners = ((F(0), F(0), F(0)), (F(0), F(15), F(15)), (F(15), F(0), F(15)), (F(15), F(15), F(30)))
    assert convex_hull(p.vertices).vertices.points == corners


# --- the facet path itself ------------------------------------------------------


def test_verdicts_under_the_cap_solve_no_lp(monkeypatch):
    p = Polyhedron.build([(0, 0), (2, 1)], [(1, 0), (0, 1)])
    probes_ = [(F(1), F(1)), (F(0), F(0)), (F(5, 2), F(0)), (F(-1), F(0)), (F(1, 2), F(1, 4))]
    expected = [(in_relative_interior(p, z), poly_contains(p, z)) for z in probes_]
    forbid_lps(monkeypatch)
    assert [(in_relative_interior(p, z), poly_contains(p, z)) for z in probes_] == expected
    assert expected == [(True, True), (False, True), (False, True), (False, False), (True, True)]


def test_the_facets_are_built_once_on_first_use():
    p = Polyhedron.build([(0, 0)], [(1, 0), (0, 1)])
    assert "facets" not in vars(p)
    in_relative_interior(p, (F(1), F(1)))
    facets = p.facets
    poly_contains(p, (F(1), F(1)))
    assert p.facets is facets
    # The quadrant at height t = 1: facets t >= 0, y >= 0 and x >= 0, no equation.
    assert facets == Facets((), ((0, 0, 1), (0, 1, 0), (1, 0, 0)))


def test_a_lower_dimensional_polyhedron_has_its_equations():
    # The segment from (0, 0, 1) to (2, 0, 1): its homogenized cone has rank 2 in R^4.
    p = Polyhedron.build([(0, 0, 1), (2, 0, 1)])
    assert len(p.facets.equations) == 2 and len(p.facets.normals) == 2
    assert in_relative_interior(p, (F(1), F(0), F(1)))
    assert not in_relative_interior(p, (F(1), F(1, 10**9), F(1)))
    assert not in_relative_interior(p, (F(0), F(0), F(1)))
    assert poly_contains(p, (F(0), F(0), F(1)))


def test_over_the_cap_a_many_vertex_polyhedron_keeps_the_lp(monkeypatch):
    # Points on the moment curve are all vertices of their hull in R^3; with
    # one ray, the homogenized cone has m + 1 generators and rank 4 in R^4, so
    # C(m + 1, 3) candidate subsets of 4**3 work each.
    m = next(m for m in range(4, 100) if comb(m + 1, 3) * 4**3 > cones._MAX_FACET_WORK)
    p = Polyhedron.build([(t, t * t, t * t * t) for t in range(m)], [(0, 0, 1)])
    assert p.facets is None
    calls = []
    for name in ("relative_interior_membership", "hull_membership"):
        original = getattr(conedom.sets, name)
        monkeypatch.setattr(
            conedom.sets, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
        )
    inside = (F(1), F(2), F(100))
    on_the_boundary = (F(0), F(0), F(0))
    outside = (F(1), F(2), F(0))
    assert [in_relative_interior(p, z) for z in (inside, on_the_boundary, outside)] == [True, False, False]
    assert [poly_contains(p, z) for z in (inside, on_the_boundary, outside)] == [True, True, False]
    assert calls == ["relative_interior_membership"] * 3 + ["hull_membership"] * 3
    # One vertex fewer is at most the cap: the facets are built.
    assert comb(m, 3) * 4**3 <= cones._MAX_FACET_WORK
    assert Polyhedron.build([(t, t * t, t * t * t) for t in range(m - 1)], [(0, 0, 1)]).facets is not None


def test_the_work_bound_grows_with_the_dimension():
    # A simplex in R^6 has only 7 candidate subsets, but each costs 7**3 in
    # the homogenized R^7: over the bound, so its verdicts come from the LP.
    simplex = Polyhedron.build([tuple(int(i == j) for j in range(6)) for i in range(6)] + [(0,) * 6])
    assert 7 * 7**3 > cones._MAX_FACET_WORK and simplex.facets is None
    assert in_relative_interior(simplex, (F(1, 7),) * 6) and not in_relative_interior(simplex, (F(1, 6),) * 6)
    # Twelve points on a parabola in R^2 have 66 subsets at 3**3 each: under it.
    parabola = Polyhedron.build([(t, t * t) for t in range(12)])
    assert comb(12, 2) * 3**3 <= cones._MAX_FACET_WORK and parabola.facets is not None

@pytest.mark.parametrize("direction", [(1, 2), (1, 2, 3), (1, 2, 3, -1)], ids=["2d", "3d", "4d"])
def test_a_segment_of_any_length_gets_the_facets_of_its_two_ends(direction, monkeypatch):
    # 80 points on one line in R^2, R^3 or R^4: their 80 one-point subsets
    # would cost 80 * (n + 1)**3 >= 2,160, over the bound; the two ends are
    # the only candidates.
    n = len(direction)
    d = tuple(map(F, direction))
    points = [tuple(k * c for c in d) for k in range(80)]
    assert comb(len(points), 1) * (n + 1) ** 3 > cones._MAX_FACET_WORK
    p = Polyhedron.build(points)
    vs = p.vertices.integer_view
    assert p.facets == reference_cone_facets(n + 1, [(*v, vs.scale) for v in vs.points])

    def on_line(t):
        return tuple(t * c for c in d)

    nudge = (F(0),) * (n - 1) + (F(1, 10**9),)
    ends = [on_line(F(0)), on_line(F(79))]
    inside = [on_line(F(1, 2)), on_line(F(40)), on_line(F(79, 2))]
    beyond = [on_line(F(-1)), on_line(F(80)), on_line(F(-1, 3))]
    off = [(F(1),) * n, vadd(on_line(F(40)), nudge), (F(0),) * (n - 1) + (F(1),)]
    probes_ = ends + inside + beyond + off
    expected = [
        (relative_interior_membership(z, p.vertices.points, ()), hull_membership(z, p.vertices.points).member)
        for z in probes_
    ]
    forbid_lps(monkeypatch)
    assert [(in_relative_interior(p, z), poly_contains(p, z)) for z in probes_] == expected
    assert expected == [(False, True)] * 2 + [(True, True)] * 3 + [(False, False)] * 6


def test_a_corrupted_normal_raises(monkeypatch):
    original = cones._oriented

    def flipped(h, generators):
        out = original(h, generators)
        return None if out is None else tuple(-c for c in out)

    monkeypatch.setattr(cones, "_oriented", flipped)
    p = Polyhedron.build([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(RuntimeError, match="facet normal"):
        in_relative_interior(p, (F(1, 3), F(1, 3)))
    with pytest.raises(RuntimeError, match="facet normal"):
        cone_facets(2, [(1, 0), (0, 1)])


def test_a_corrupted_equation_raises(monkeypatch):
    original = cones._SpanSolver

    class Shifted(original):
        def __init__(self, dimension, generators):
            super().__init__(dimension, generators)
            self.integer_elim = tuple(tuple(c + 1 for c in row) for row in self.integer_elim)

    monkeypatch.setattr(cones, "_SpanSolver", Shifted)
    with pytest.raises(RuntimeError, match="equation"):
        cone_facets(3, [(1, 0, 0), (0, 1, 0)])


def test_cone_facets_of_a_subspace_and_of_no_generators():
    # The plane z = 0: one equation, no facet; every point of it is interior.
    plane = cone_facets(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])
    assert len(plane.equations) == 1 and plane.normals == ()
    assert plane.contains((5, -7, 0), relative_interior=True)
    assert not plane.contains((0, 0, 1))
    # No generators: the cone is the origin alone.
    origin = cone_facets(2, [])
    assert origin.normals == () and origin.contains((0, 0), relative_interior=True)
    assert not origin.contains((1, 0))


def test_a_wrong_dimension_is_refused():
    p = Polyhedron.build([(0, 0)], [(1, 0)])
    with pytest.raises(ValueError, match="dimension"):
        poly_contains(p, (F(1), F(0), F(0)))
    with pytest.raises(ValueError, match="dimension"):
        in_relative_interior(p, (F(1),))


# --- the null vector against the cofactor ----------------------------------------


def reference_determinant(rows):
    """The former `cones._determinant`: fraction-free (Bareiss 1968), with a
    row swap on a zero pivot."""
    m = [list(row) for row in rows]
    n, sign, previous = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    return sign * m[-1][-1] if n else 1


def reference_cross(rows, dimension):
    """The former `cones._cross`: the cofactor vector of dimension - 1 rows,
    zero exactly when they are dependent."""
    return tuple((-1) ** j * reference_determinant([row[:j] + row[j + 1 :] for row in rows]) for j in range(dimension))


def reference_cone_facets(dimension, generators):
    """The former subset path of `cone_facets`, with no work bound: the
    equations of the `Fraction` Gauss-Jordan, and the cofactor vector of
    every (rank - 1)-subset stacked with them, kept when one-signed."""
    rank, *_, integer_elim = reference_span_solver(dimension, generators)
    equations = tuple(integer_elim[rank:])
    normals = set()
    for subset in combinations(generators, rank - 1) if rank else ():
        h = reference_cross((*subset, *equations), dimension)
        if any(h) and (oriented := cones._oriented(h, generators)) is not None:
            normals.add(oriented)
    return Facets(equations, tuple(sorted(normals)))


def primitive(h):
    return tuple(c // gcd(*h) for c in h)


@st.composite
def short_matrices(draw):
    """D from 2 to 7 and D - 1 integer rows of length D: fresh rows, zero
    rows, repeats and combinations of earlier rows, and sometimes a column
    that every row leaves zero."""
    d = draw(st.integers(2, 7))
    entries = st.integers(-9, 9)
    rows = []
    for _ in range(d - 1):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat", "combination") if rows else ("fresh", "zero")))
        if kind == "fresh":
            row = [draw(entries) for _ in range(d)]
        elif kind == "zero":
            row = [0] * d
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            u, w = (1, 0) if kind == "repeat" else (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
            row = [u * x + w * y for x, y in zip(a, b)]
        rows.append(row)
    if draw(st.booleans()):
        blank = draw(st.integers(0, d - 1))
        rows = [row[:blank] + [0] + row[blank + 1 :] for row in rows]
    return d, rows


@settings(max_examples=600, deadline=None)
@given(case=short_matrices())
def test_the_null_vector_is_the_cofactor_vector_up_to_sign(case):
    d, rows = case
    h, cofactor = cones._null_vector(rows, d), reference_cross(rows, d)
    assert (h is None) == (not any(cofactor))
    if h is not None:
        assert all(sum(a * b for a, b in zip(row, h)) == 0 for row in rows)
        assert primitive(h) in (primitive(cofactor), tuple(-c for c in primitive(cofactor)))


def test_the_null_vector_of_a_few_fixed_matrices():
    # A zero first entry (the pivot comes from the second row), a free column
    # in the middle, and a negative first pivot.
    assert cones._null_vector([[0, 1, 2], [1, 0, 3]], 3) == (-3, -2, 1)
    assert cones._null_vector([[1, 2, 0], [0, 0, 1]], 3) == (-2, 1, 0)
    assert cones._null_vector([[-2, 1]], 2) == (1, 2)
    assert cones._null_vector([[1, 2, 3], [2, 4, 6]], 3) is None
    assert cones._null_vector([], 1) == (1,)


def test_cone_facets_match_the_cofactor_subsets_on_every_cone_kind():
    # KINDS lives in test_order_coordinates, which imports test_cones.
    from test_order_coordinates import KINDS, cases

    for kind in KINDS:
        for cone, _ in cases(kind):
            generators = cone.generator_view.points
            expected = reference_cone_facets(cone.dimension, generators)
            assert cone_facets(cone.dimension, generators) == expected, kind
            if not cone.span_solver.unique:
                assert cone.facets == expected, kind


@settings(max_examples=150, deadline=None)
@given(shape=st.one_of(full_dimensional(), planar(), degenerate(), polygons().map(lambda vs: (vs, []))))
def test_polyhedron_facets_match_the_cofactor_subsets(shape):
    vertices, rays = shape
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cones, "_MAX_FACET_WORK", 10**9)
        p = Polyhedron.build(vertices, rays)
        facets = p.facets
    vs = p.vertices.integer_view
    generators = [(*v, vs.scale) for v in vs.points] + [(*r, 0) for r in p.ray_view.points]
    assert facets == reference_cone_facets(p.dimension + 1, generators)


def test_a_dependent_cone_eliminates_its_generators_once(monkeypatch):
    built = []

    class Counted(cones._SpanSolver):
        def __init__(self, dimension, generators):
            built.append(len(generators))
            super().__init__(dimension, generators)

    monkeypatch.setattr(cones, "_SpanSolver", Counted)
    cone = Cone.build(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], False)
    assert cone.facets is not None and not cone.span_solver.unique
    assert built == [4]
