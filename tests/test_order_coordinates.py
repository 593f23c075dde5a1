"""Order coordinates against a pairwise `cone_contains` reference.

Every consumer of the order map (`relate`, the chain and antichain scans,
Pareto optima, the domination matrix behind `check_equivalences` and the
support tops of the dominance certificates) is compared on seeded cones of
every kind with the same question asked one pair at a time through
`cone_contains` or the LP. Every cone with facets reads its order from its
facet coordinates (`ConeOrder.coordinates`): on independent generators the
elimination's own rows, on dependent ones `cone_facets`. Only a cone above
the facet work bound keeps the pairwise path, which the tests check too.
Pareto optima on a pointed cone with dependent generators sweep by its
positive functional, and on every other cone with facets by the sum of the
normal coordinates. Points include ties in the generator-coordinate sum
and in that functional, denominators 1, 2 and 3, and numerators around 10^20.

The facet coordinates of a whole list are checked against one dot product
per point and row, and a non-simplicial sweep against building a second
integer view. The section on facet verdicts checks `cone_contains` itself,
which reads the cone's facets on dependent generators, against the LP
(`_solve_membership`): the verdicts, the origin without the flag (decided
by pointedness, with no LP), the certificates, the LP kept above the facet
work bound, and the public entry points against a pairwise LP reference.
The last two sections draw point sets near an antichain (many optima) on
every cone kind, and point sets with classes of two or three points along
the lineality space of a cone that is not pointed (equal coordinates, so
each point lies above the others), and check their optima against the
pairwise reference.
"""

import random
from dataclasses import replace
from fractions import Fraction as F
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conedom.cones
from conedom.cones import (
    Comparability,
    Cone,
    ConeMembership,
    ConeOrder,
    _solve_membership,
    cone_contains,
    cone_membership,
    is_pointed,
    k_closure,
    relate,
    validate_membership,
    with_origin,
)
from conedom.dominance import (
    _domination_matrix,
    check_equivalences,
    dominated_element,
    dominating_element,
    is_pareto_in_hull,
    pareto_optima_finite,
    validate_certificate,
)
from conedom.instances import rand_cone_member, rand_hull_point, rand_point, rand_pointed_cone
from conedom.linalg import integer_multiple, integer_points, is_zero_vec, vadd, vdot, vneg, vscale, vsub
from conedom.maximals import FiniteRelation, maximals
from conedom.sets import (
    ChainSet,
    DecomposableSet,
    FinitePointSet,
    first_comparable_pair,
    first_incomparable_pair,
    is_antichain,
    is_chain,
    materialize,
)
from test_cones import reference_cone_membership

BIG = 10**20


# --- the pairwise reference ---------------------------------------------------


def ref_relate(cone, x, y, contains=cone_contains):
    up = contains(cone, vsub(y, x))
    down = contains(cone, vsub(x, y))
    if up and down:
        return Comparability.BOTH
    if up:
        return Comparability.UP
    if down:
        return Comparability.DOWN
    return Comparability.INCOMPARABLE


def ref_first_pair(pts, cone, comparable, contains=cone_contains):
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if (ref_relate(cone, pts[i], pts[j], contains) is not Comparability.INCOMPARABLE) == comparable:
                return pts[i], pts[j]
    return None


def ref_optima(pts, cone, contains=cone_contains):
    return tuple(y for y in pts if not any(t != y and contains(cone, vsub(t, y)) for t in pts))


def lp_contains(cone, v):
    """The LP's verdict alone, for every v: the origin as a unit-mass
    combination unless the flag admits it, any other v as a nonnegative one."""
    if is_zero_vec(v):
        return cone.contains_zero or (bool(cone.generators) and _solve_membership(cone, v, unit_mass=True).member)
    return bool(cone.generators) and _solve_membership(cone, v, unit_mass=False).member


def lp_pointed(cone):
    """Pointedness from one LP: the nonzero generators (if any) have the
    origin outside their convex hull."""
    nonzero = tuple(g for g in cone.generators if not is_zero_vec(g))
    return not nonzero or not lp_contains(Cone(cone.dimension, nonzero, False), (F(0),) * cone.dimension)


def ref_matrix(pts, cone):
    return tuple(tuple(cone_contains(cone, vsub(t, s)) for s in pts) for t in pts)


# --- cones of every kind ------------------------------------------------------


def simplicial(rng, dim, contains_zero):
    return rand_pointed_cone(rng, dim, contains_zero).cone


def rank_deficient(rng, dim, contains_zero):
    """dim - 1 independent generators: points can differ off the span only."""
    return Cone(dim, simplicial(rng, dim, contains_zero).generators[:-1], contains_zero)


def nonsimplicial_pointed(rng, dim, contains_zero):
    """A simplicial draw plus one more generator in the guard's half-space."""
    draw = rand_pointed_cone(rng, dim, contains_zero)
    extra = tuple(c + d for c, d in zip(draw.cone.generators[0], draw.cone.generators[1]))
    return Cone(dim, draw.cone.generators + (vadd(extra, draw.guard),), contains_zero)


def planar_pointed(rng, dim, contains_zero):
    """Pointed, with three dependent generators in a plane of R^max(dim, 3):
    points can differ off the span, and on it only the LP decides."""
    gens = simplicial(rng, max(dim, 3), contains_zero).generators
    return Cone(len(gens[0]), (gens[0], gens[1], vadd(gens[0], vscale(F(2), gens[1]))), contains_zero)


def nonsimplicial_line(rng, dim, contains_zero):
    """Not pointed: holds a generator and its negation."""
    gens = simplicial(rng, dim, contains_zero).generators
    return Cone(dim, gens + (tuple(-c for c in gens[0]),), contains_zero)


def rank_deficient_line(rng, dim, contains_zero):
    """Not pointed and of rank dim - 1: dim - 1 independent generators and
    the negation of the first."""
    gens = simplicial(rng, dim, contains_zero).generators[:-1]
    return Cone(dim, gens + (tuple(-c for c in gens[0]),), contains_zero)


def with_zero_generator(rng, dim, contains_zero):
    gens = simplicial(rng, dim, contains_zero).generators
    return Cone(dim, gens + (tuple(F(0) for _ in range(dim)),), contains_zero)


def no_generators(rng, dim, contains_zero):
    return Cone(dim, (), contains_zero)


def above_the_work_bound(rng, contains_zero=False):
    """A pointed cone in dimension 4 with 7 generators: C(7, 3) * 4**3 =
    2,240 is over the facet work bound of 2,048, while C(6, 3) * 4**3 =
    1,280 for its first 6 generators is under it."""
    gens = simplicial(rng, 4, contains_zero).generators
    return Cone(4, gens + tuple(vadd(gens[i], gens[i + 1]) for i in range(3)), contains_zero)


KINDS = {
    "simplicial": (simplicial, True),
    "rank_deficient": (rank_deficient, True),
    "nonsimplicial_pointed": (nonsimplicial_pointed, False),
    "planar_pointed": (planar_pointed, False),
    "nonsimplicial_not_pointed": (nonsimplicial_line, False),
    "rank_deficient_not_pointed": (rank_deficient_line, False),
    "zero_generator": (with_zero_generator, False),
    "no_generators": (no_generators, False),
}


def base_point(rng, dim, big):
    if not big:
        return rand_point(rng, dim)
    return tuple(F(BIG + rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(dim))


def off_span_part(cone, u):
    """u minus its generator combination: on cones with independent
    generators, its generator coordinates vanish and its off-span ones are
    those of u."""
    solver = cone.span_solver
    mu = [sum((a * b for a, b in zip(e, u)), F(0)) for e in solver.elim[: solver.rank]]
    out = u
    for c, g in zip(mu, cone.generators):
        out = vsub(out, vscale(c, g))
    return out


def orthogonal_part(vectors, u):
    """u minus its orthogonal projection onto the span of `vectors`."""
    basis = []
    for v in vectors:
        for b in basis:
            v = vsub(v, vscale(vdot(v, b) / vdot(b, b), b))
        if any(v):
            basis.append(v)
    for b in basis:
        u = vsub(u, vscale(vdot(u, b) / vdot(b, b), b))
    return u


def level_step(phi):
    """A nonzero w with phi.w = 0, for a nonzero phi of length at least 2."""
    if phi[0] == phi[1] == 0:
        return (F(1),) + (F(0),) * (len(phi) - 1)
    return (F(phi[1]), F(-phi[0])) + (F(0),) * (len(phi) - 2)


def rand_points(rng, cone, big):
    """Up to 12 distinct points: a cone-step chain; ties in the generator
    sum (p + g_i - g_j) and in the coordinate sum; shifts that change only
    the off-span coordinates, one of them on top of a cone step; on a
    pointed cone with dependent generators, ties in phi.p for its positive
    functional phi (incomparable, as phi is positive on the cone minus the
    origin); and unrelated points."""
    dim = cone.dimension
    p = base_point(rng, dim, big)
    pts = [p]
    for _ in range(2):
        pts.append(vadd(pts[-1], rand_cone_member(rng, k_closure(cone), strict=False)))
    gens = cone.generators
    if len(gens) >= 2:
        pts.append(vadd(p, vsub(gens[0], gens[1])))
        pts.append(vadd(pts[1], vscale(F(1, 3), vsub(gens[1], gens[0]))))
    pts.append(vadd(p, tuple(F(1, 2) if d == 0 else F(-1, 2) if d == 1 else F(0) for d in range(dim))))
    if cone.generators and cone.span_solver.unique:
        w = off_span_part(cone, base_point(rng, dim, False))
        pts.extend((vadd(p, w), vadd(pts[1], w)))
    elif cone.generators and cone.span_solver.rank < dim:
        w = orthogonal_part(cone.generators, base_point(rng, dim, False))
        pts.extend((vadd(p, w), vadd(pts[1], w)))
    if cone.generators and not cone.span_solver.unique and cone.positive_functional is not None:
        w = level_step(cone.positive_functional)
        pts.extend((vadd(p, w), vadd(pts[2], w)))
    pts.append(base_point(rng, dim, big))
    pts.append(vadd(pts[-1], base_point(rng, dim, False)))
    return FinitePointSet.build(pts)


def cases(kind, count=6):
    make, _ = KINDS[kind]
    rng = random.Random(f"order-coordinates-{kind}")
    for t in range(count):
        dim = 2 + t % 3
        cone = make(rng, dim, contains_zero=t % 2 == 0)
        yield cone, rand_points(rng, cone, big=t % 3 == 2)


@pytest.mark.parametrize("kind", KINDS)
def test_the_coordinate_path_is_taken_exactly_when_the_cone_has_facets(kind):
    rng = random.Random(f"coordinate-path-{kind}")
    over = above_the_work_bound(rng)
    for cone, pts in [*cases(kind, 3), (over, rand_points(rng, over, big=False))]:
        assert (ConeOrder(cone, pts.points).coordinates is None) == (cone.facets is None) == (cone is over)


def reference_coordinates(facets, q):
    """(E.q, H.q) for one integer vector q, one dot product per row."""
    return tuple(sum(map(mul, e, q)) for e in facets.equations), tuple(sum(map(mul, h, q)) for h in facets.normals)


@pytest.mark.parametrize("kind", KINDS)
def test_the_list_coordinates_match_the_per_point_reference(kind):
    for cone, pts in cases(kind):
        facets = cone.facets
        view = integer_points(pts.points).points
        for subset in (view, view[:1], view[::-1], ()):
            assert facets.coordinates(subset) == [reference_coordinates(facets, q) for q in subset]
        assert ConeOrder(cone, pts.points).coordinates == facets.coordinates(view)


def test_a_nonsimplicial_sweep_builds_one_integer_view(monkeypatch):
    calls = []
    real = conedom.cones.integer_points
    monkeypatch.setattr(conedom.cones, "integer_points", lambda points: calls.append(points) or real(points))
    for kind in ("nonsimplicial_pointed", "planar_pointed"):
        for cone, pts in cases(kind, 3):
            assert cone.facets is not None and cone.positive_functional is not None  # built before the count
            calls.clear()
            assert tuple(pts.points[i] for i in ConeOrder(cone, pts.points).maxima()) == ref_optima(pts.points, cone)
            assert calls == [pts.points]
            calls.clear()
            pareto_optima_finite(pts, cone)
            assert calls == [pts.points]


def ref_scan_calls(cone, pts):
    """The vectors an incomparable-pair scan passes to `cone_contains`: for
    each pair i < j, point j minus point i, and the reverse only when the
    first is not in the cone; up to the first incomparable pair."""
    calls = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            up, down = vsub(pts[j], pts[i]), vsub(pts[i], pts[j])
            if cone_contains(cone, up):
                calls.append(up)
            elif cone_contains(cone, down):
                calls += [up, down]
            else:
                return calls + [up, down]
    return calls


def counting_questions(monkeypatch, over_bound):
    """Record the difference of every order question: each `cone_contains`
    call on a cone above the work bound, each `ConeOrder.above` call on any
    other cone."""
    calls = []
    if over_bound:

        def counting(cone, v):
            calls.append(v)
            return cone_contains(cone, v)

        monkeypatch.setattr(conedom.cones, "cone_contains", counting)
    else:
        above = ConeOrder.above

        def counting(order, i, j):
            calls.append(vsub(order.points[j], order.points[i]))
            return above(order, i, j)

        monkeypatch.setattr(ConeOrder, "above", counting)
    return calls


@pytest.mark.parametrize("kind", [*KINDS, "above_the_work_bound"])
def test_a_pair_scan_asks_the_second_direction_only_when_the_first_fails(kind, monkeypatch):
    over_bound = kind == "above_the_work_bound"
    if over_bound:
        rng = random.Random("pair-scan-over-bound")
        cones = [above_the_work_bound(rng) for _ in range(2)]
        pairs = [(cone, rand_points(rng, cone, big=False)) for cone in cones]
    else:
        pairs = list(cases(kind))
    calls = counting_questions(monkeypatch, over_bound)
    for cone, pts in pairs:
        assert (cone.facets is None) == over_bound
        for subset in (pts.points, pts.points[::-1]):
            calls.clear()
            first_incomparable_pair(FinitePointSet(subset), cone)
            assert calls == ref_scan_calls(cone, subset)


@pytest.mark.parametrize("kind", KINDS)
def test_the_positive_functional_exists_exactly_on_pointed_cones_without_a_zero_generator(kind):
    for cone, _ in cases(kind, 3):
        phi = cone.positive_functional
        pointed = bool(cone.generators) and is_pointed(cone) and not any(map(is_zero_vec, cone.generators))
        without = kind in ("nonsimplicial_not_pointed", "rank_deficient_not_pointed", "zero_generator", "no_generators")
        assert (phi is not None) == pointed == (not without)
        if phi is not None:
            assert all(vdot(phi, g) > 0 for g in cone.generators)
        flipped = with_origin(cone, not cone.contains_zero)
        assert vars(flipped)["positive_functional"] is phi


def test_a_functional_not_positive_on_every_generator_is_refused(monkeypatch):
    cone = Cone.build(2, [[1, 0], [0, 1], [1, 1]], False)
    refutation = ConeMembership(False, functional=(F(1), F(0)))  # zero on the generator (0, 1)
    monkeypatch.setattr(conedom.cones, "_solve_membership", lambda *_, **__: refutation)
    with pytest.raises(RuntimeError):
        cone.positive_functional


def reference_positive_functional(cone):
    """phi as the unit-mass origin LP gives it, solved on every cone with
    generators, and re-read in integers."""
    if not cone.generators:
        return None
    m = _solve_membership(cone, (F(0),) * cone.dimension, unit_mass=True)
    return None if m.member else integer_multiple(m.functional)[1]


def uncached(cone):
    """The same cone with nothing built yet: no span solver, facets or phi."""
    return Cone(cone.dimension, cone.generators, cone.contains_zero)


@pytest.mark.parametrize("kind", KINDS)
def test_phi_asks_the_origin_rule_and_solves_an_lp_only_when_it_exists(kind, monkeypatch):
    # A zero generator admits the origin and the facets decide the rest, so
    # a cone without phi solves no LP; a pointed cone with dependent
    # generators solves the one LP whose Farkas vector is phi.
    builds_phi = kind in ("nonsimplicial_pointed", "planar_pointed")
    for cone, pts in cases(kind, 3):
        expected = reference_positive_functional(cone)
        cone = uncached(cone)
        solved = recording_lps(monkeypatch)
        ConeOrder(cone, pts.points).maxima()
        assert len(solved) == (1 if builds_phi else 0)
        monkeypatch.undo()
        assert ("positive_functional" in vars(cone)) == (not cone.span_solver.unique)  # maxima asked phi
        assert cone.positive_functional == expected


def test_above_the_work_bound_phi_is_read_from_the_one_lp_that_decides(monkeypatch):
    rng = random.Random("phi-above-the-bound")
    pointed = above_the_work_bound(rng, contains_zero=True)
    line = Cone(4, pointed.generators + (vneg(pointed.generators[0]),), True)
    for cone, has_phi in ((pointed, True), (line, False)):
        expected = reference_positive_functional(cone)
        assert (expected is not None) == has_phi
        cone = uncached(cone)
        solved = recording_lps(monkeypatch)
        assert cone.positive_functional == expected
        assert len(solved) == 1
        monkeypatch.undo()


@pytest.mark.parametrize("extra", ["negation", "zero generator"])
def test_above_the_work_bound_without_phi_maxima_compare_every_pair(extra):
    rng = random.Random(f"all-pairs-{extra}")
    gens = above_the_work_bound(rng).generators
    added = vneg(gens[0]) if extra == "negation" else (F(0),) * 4
    cone = Cone(4, gens + (added,), False)
    assert cone.facets is None and cone.positive_functional is None
    pts = rand_points(rng, cone, big=False).points
    assert len(pts) >= 8
    assert tuple(pts[i] for i in ConeOrder(cone, pts).maxima()) == ref_optima(pts, cone)


@pytest.mark.parametrize("kind", [kind for kind, (_, independent) in KINDS.items() if independent])
def test_the_positive_functional_is_never_built_for_independent_generators(kind):
    for cone, pts in cases(kind):
        ConeOrder(cone, pts.points).maxima()
        first_incomparable_pair(pts, cone)
        relate(cone, pts.points[0], pts.points[1])
        check_equivalences(chain_sum(random.Random(kind), cone, (3, 2)))
        assert "positive_functional" not in vars(cone)


@pytest.mark.parametrize("kind", ["nonsimplicial_pointed", "planar_pointed"])
def test_maxima_under_a_single_top_ask_one_question_per_other_point(kind, monkeypatch):
    make, _ = KINDS[kind]
    rng = random.Random(f"single-top-{kind}")
    calls = counting_questions(monkeypatch, over_bound=False)
    for t in range(4):
        cone = make(rng, 2 + t % 3, contains_zero=t % 2 == 0)
        assert cone.positive_functional is not None
        pts = materialize(chain_sum(rng, cone, (3, 2, 2))).points
        top = max(range(len(pts)), key=lambda i: vdot(cone.positive_functional, pts[i]))
        calls.clear()
        assert ConeOrder(cone, pts).maxima() == [top]
        assert len(calls) == len(pts) - 1


def leaving_chain_sum(rng, cone, sizes):
    """A sum of chains whose every step has a positive normal coordinate, so
    it leaves the lineality space {Ex = 0, Hx = 0}: the sum of the chain tops
    then lies strictly above every other point, in a class of its own."""
    normals = cone.facets.normals
    chains = []
    for size in sizes:
        pts = [rand_point(rng, cone.dimension)]
        while len(pts) < size:
            step = rand_cone_member(rng, k_closure(cone), strict=False)
            _, q = integer_multiple(step)
            if any(sum(map(mul, h, q)) for h in normals):
                pts.append(vadd(pts[-1], step))
        chains.append(ChainSet.build(pts, cone))
    return DecomposableSet(tuple(chains))


@pytest.mark.parametrize("kind", ["nonsimplicial_not_pointed", "rank_deficient_not_pointed", "zero_generator"])
def test_maxima_without_phi_under_a_single_top_ask_one_question_per_other_point(kind, monkeypatch):
    # These cones have no positive functional and sweep on the sum of their
    # normal coordinates; comparing every pair would ask at least 2(n - 1).
    make, _ = KINDS[kind]
    rng = random.Random(f"single-top-without-phi-{kind}")
    calls = counting_questions(monkeypatch, over_bound=False)
    for t in range(4):
        cone = make(rng, 3 + t % 2, contains_zero=t % 2 == 0)
        assert cone.positive_functional is None and cone.facets is not None
        pts = materialize(leaving_chain_sum(rng, cone, (3, 2, 2))).points
        (top,) = [pts.index(p) for p in ref_optima(pts, cone)]
        calls.clear()
        assert ConeOrder(cone, pts).maxima() == [top]
        assert len(calls) == len(pts) - 1


@pytest.mark.parametrize("kind", KINDS)
def test_relate_matches_the_pairwise_reference(kind):
    for cone, pts in cases(kind):
        for x in pts.points:
            for y in pts.points:
                assert relate(cone, x, y) is ref_relate(cone, x, y)


@pytest.mark.parametrize("kind", KINDS)
def test_pair_scans_match_the_pairwise_reference(kind):
    for cone, pts in cases(kind):
        for subset in (pts.points, pts.points[:3], pts.points[::2], pts.points[3:]):
            s = FinitePointSet(subset)
            incomparable = ref_first_pair(subset, cone, comparable=False)
            comparable = ref_first_pair(subset, cone, comparable=True)
            assert first_incomparable_pair(s, cone) == incomparable
            assert first_comparable_pair(s, cone) == comparable
            assert is_chain(s, cone) == (incomparable is None)
            assert is_antichain(s, cone) == (comparable is None)


@pytest.mark.parametrize("kind", KINDS)
def test_pareto_optima_match_the_reference_in_input_order(kind):
    for cone, pts in cases(kind):
        for subset in (pts.points, pts.points[::-1]):
            optima = pareto_optima_finite(FinitePointSet(subset), cone)
            assert optima.points == ref_optima(subset, cone)


@pytest.mark.parametrize("kind", KINDS)
def test_domination_matrix_matches_the_reference(kind):
    for cone, pts in cases(kind):
        assert _domination_matrix(pts, cone) == ref_matrix(pts.points, cone)


def chain_sum(rng, cone, sizes):
    """A sum of chains built from nonzero cone steps (single points for a
    cone with no generators)."""
    chains = []
    for size in sizes:
        p = rand_point(rng, cone.dimension)
        pts = [p]
        while cone.generators and len(pts) < size:
            step = rand_cone_member(rng, k_closure(cone), strict=False)
            if any(step):
                pts.append(vadd(pts[-1], step))
        chains.append(ChainSet.build(pts, cone))
    return DecomposableSet(tuple(chains))


@pytest.mark.parametrize("kind", KINDS)
def test_dominance_certificates_match_the_pairwise_lp_reference(kind):
    """The summand witnesses of `dominating_element` and `dominated_element`
    are support tops (bottoms) by the LP, and `validate_certificate` accepts
    another choice of summand points exactly when the LP puts its cone
    vector in the closed cone."""
    make, _ = KINDS[kind]
    rng = random.Random(f"dominance-{kind}")
    for t in range(4):
        cone = make(rng, 2 + t % 2, contains_zero=t % 2 == 0)
        closed = k_closure(cone)
        chains = chain_sum(rng, cone, (4, 3)).summands
        d = DecomposableSet(tuple(ChainSet.build(rng.sample(c.base.points, len(c.base)), cone) for c in chains))
        for _ in range(3):
            y = rand_hull_point(rng, d)
            for find, up in ((dominating_element, True), (dominated_element, False)):
                cert = find(y, d)
                assert validate_certificate(cert, d) == []
                assert lp_contains(closed, cert.cone_vector)
                for block, chain, w in zip(cert.decomposition.blocks, d.summands, cert.summand_witnesses):
                    support = [p for c, p in zip(block, chain.base.points) if c > 0]
                    assert w in support
                    assert all(lp_contains(closed, vsub(w, p) if up else vsub(p, w)) for p in support)
                others = tuple(rng.choice(chain.base.points) for chain in d.summands)
                witness = reduce(vadd, others)
                vector = vsub(witness, y) if up else vsub(y, witness)
                other = replace(cert, witness=witness, cone_vector=vector, summand_witnesses=others)
                expected = [] if lp_contains(closed, vector) else ["cone vector is outside the closed cone"]
                assert validate_certificate(other, d) == expected


@pytest.mark.parametrize("kind", KINDS)
def test_check_equivalences_matches_the_reference(kind):
    make, _ = KINDS[kind]
    rng = random.Random(f"equivalences-{kind}")
    for t in range(4):
        dim = 2 + t % 2
        cone = make(rng, dim, contains_zero=t % 2 == 0)
        d = chain_sum(rng, cone, (3, 2))
        pts = materialize(d)
        optima = ref_optima(pts.points, cone)
        toggle = sorted(ref_optima(pts.points, with_origin(cone, True))) == sorted(
            ref_optima(pts.points, with_origin(cone, False))
        )
        hull_eq = maximals_eq = None
        if is_pointed(cone):
            hull_eq = all((p in optima) == is_pareto_in_hull(p, d) for p in pts)
            relation = FiniteRelation(pts, ref_matrix(pts.points, cone))
            maximals_eq = maximals(relation, pts).sorted_points() == tuple(sorted(optima))
        report = check_equivalences(d)
        assert report.optima.points == optima
        assert (report.origin_toggle_invariant, report.hull_equivalence, report.maximals_agree) == (
            toggle,
            hull_eq,
            maximals_eq,
        )


def test_span_solver_lives_on_the_cone_and_is_shared_across_origin_flags():
    cone = Cone.build(2, [[1, 0], [1, 1]], False)
    assert cone.span_solver is cone.span_solver
    closed = k_closure(cone)
    assert closed == Cone.build(2, [[1, 0], [1, 1]], True)
    assert closed.span_solver is cone.span_solver
    assert with_origin(closed, True) is closed
    assert Cone.build(2, [[1, 0], [1, 1]], False).span_solver is not cone.span_solver


def test_order_coordinates_reject_a_wrong_dimension():
    rng = random.Random("wrong-dimension")
    cones = [make(rng, 2 + t, t % 2 == 0) for make, _ in KINDS.values() for t in range(2)]
    cones += [above_the_work_bound(rng), Cone.build(2, [[1, 0], [0, 1], [1, 1]], False)]
    for cone in cones:
        right = (F(1),) * cone.dimension
        for n in (cone.dimension + 1, cone.dimension - 1):
            wrong, other = (F(1),) * n, (F(2),) * n
            for pts in ([wrong], [wrong, other]):
                s = FinitePointSet(tuple(pts))
                with pytest.raises(ValueError):
                    ConeOrder(cone, pts)
                with pytest.raises(ValueError):
                    pareto_optima_finite(s, cone)
                with pytest.raises(ValueError):
                    is_antichain(s, cone)
            for pts in ([right, wrong], [wrong, right]):
                with pytest.raises(ValueError):
                    ConeOrder(cone, pts)
            with pytest.raises(ValueError):
                relate(cone, right, wrong)


# --- facet verdicts against the LP --------------------------------------------------


def probe_vectors(cone, pts):
    """Every difference of two points (the origin included), the generators,
    their negations, and the sum and difference of the first two."""
    vectors = [vsub(y, x) for x in pts.points for y in pts.points]
    gens = cone.generators
    vectors += [*gens, *map(vneg, gens)]
    if len(gens) >= 2:
        vectors += [vadd(gens[0], gens[1]), vsub(gens[0], gens[1])]
    return vectors


def recording_lps(monkeypatch):
    """Rebind `_solve_membership`, recording the vector of every LP it solves."""
    solved = []

    def record(cone, v, unit_mass):
        solved.append(v)
        return _solve_membership(cone, v, unit_mass)

    monkeypatch.setattr(conedom.cones, "_solve_membership", record)
    return solved


@pytest.mark.parametrize("kind", KINDS)
def test_verdicts_off_the_origin_solve_no_lp_and_are_the_lps(kind, monkeypatch):
    _, independent = KINDS[kind]
    for cone, pts in cases(kind):
        probes = probe_vectors(cone, pts)
        expected = [lp_contains(cone, v) for v in probes]
        if cone.generators and not independent:
            assert cone.facets is not None
        solved = recording_lps(monkeypatch)
        assert [cone_contains(cone, v) for v in probes] == expected
        assert all(is_zero_vec(v) for v in solved)
        monkeypatch.undo()


@pytest.mark.parametrize("kind", KINDS)
def test_the_origin_without_the_flag_is_the_unit_mass_lps_verdict_and_solves_none(kind, monkeypatch):
    # With no zero generator the origin is a positive-mass combination
    # exactly when the cone is not pointed, which the facets decide.
    admitted = kind in ("nonsimplicial_not_pointed", "rank_deficient_not_pointed", "zero_generator")
    for cone, _ in cases(kind):
        cone = with_origin(cone, False)
        zero = (F(0),) * cone.dimension
        assert lp_contains(cone, zero) == admitted
        solved = recording_lps(monkeypatch)
        assert cone_contains(cone, zero) == admitted
        assert solved == []
        monkeypatch.undo()
        m = cone_membership(cone, zero)
        assert m.member == admitted and validate_membership(cone, zero, m) == []


def test_relate_of_a_point_with_itself_solves_no_lp(monkeypatch):
    # Dependent generators and no origin flag: both directions ask the
    # origin, and the cone is pointed, so the points are incomparable.
    cone = Cone.build(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], False)
    x = (F(1), F(2), F(3))
    solved = recording_lps(monkeypatch)
    assert relate(cone, x, x) is Comparability.INCOMPARABLE
    assert relate(with_origin(cone, True), x, x) is Comparability.BOTH
    assert solved == []


def counting_memberships(monkeypatch):
    """Rebind `cones._membership`, recording the vector of every call."""
    calls = []
    real = conedom.cones._membership

    def counting(cone, v):
        calls.append(v)
        return real(cone, v)

    monkeypatch.setattr(conedom.cones, "_membership", counting)
    return calls


def test_relate_of_a_point_with_itself_asks_one_membership_per_direction(monkeypatch):
    # The origin's verdict reads pointedness from the facets' rank, with no
    # membership question of its own.
    cone = Cone.build(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], False)
    x = (F(1), F(2), F(3))
    calls = counting_memberships(monkeypatch)
    for _ in range(2):
        calls.clear()
        assert relate(cone, x, x) is Comparability.INCOMPARABLE
        assert len(calls) == 2


def reference_is_pointed(cone):
    """The per-generator form: pointed unless some nonzero generator's
    negation lies in the cone."""
    return not any(cone_contains(cone, vneg(g)) for g in cone.generators if not is_zero_vec(g))


@pytest.mark.parametrize("kind", KINDS)
def test_pointedness_from_the_facets_is_the_lps_and_asks_no_membership(kind, monkeypatch):
    for cone, _ in cases(kind):
        for flag in (False, True):
            cone = with_origin(cone, flag)
            expected = lp_pointed(cone)
            assert reference_is_pointed(cone) == expected
            assert cone.facets is not None
            calls = counting_memberships(monkeypatch)
            assert is_pointed(cone) == expected
            assert calls == []
            monkeypatch.undo()


def test_above_the_work_bound_pointedness_asks_one_membership_per_generator(monkeypatch):
    rng = random.Random("pointed-over-bound")
    cone = above_the_work_bound(rng)
    line = Cone(4, cone.generators + (vneg(cone.generators[0]),), False)
    for c, pointed in ((cone, True), (line, False)):
        assert c.facets is None and lp_pointed(c) == pointed
        calls = counting_memberships(monkeypatch)
        assert is_pointed(c) == pointed
        # The generators' negations in order, all 7 on the pointed cone, up
        # to the first member on the other.
        assert calls and calls == [vneg(g) for g in c.generators][: len(calls)]
        assert (len(calls) == 7) == pointed
        monkeypatch.undo()


small_ints = st.integers(min_value=-3, max_value=3)


@st.composite
def shaped_cones(draw):
    """Cones in R^2 to R^4 with up to five small integer generators, drawn
    inside a subspace of rank one to the dimension (rank deficient when
    smaller), then with a generator's negation (not pointed) or a zero
    generator appended, or both, or neither."""
    dim = draw(st.integers(min_value=2, max_value=4))
    basis = [tuple(draw(small_ints) for _ in range(dim)) for _ in range(draw(st.integers(1, dim)))]
    generators = [
        tuple(sum(c * b[d] for c, b in zip(combination, basis)) for d in range(dim))
        for combination in draw(st.lists(st.lists(small_ints, min_size=len(basis), max_size=len(basis)), max_size=5))
    ]
    if generators and draw(st.booleans()):
        generators.append(tuple(-c for c in draw(st.sampled_from(generators))))
    if draw(st.booleans()):
        generators.insert(draw(st.integers(0, len(generators))), (0,) * dim)
    return Cone.build(dim, generators, draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(shaped_cones())
def test_pointedness_matches_the_lp_on_drawn_cones(cone):
    expected = lp_pointed(cone)
    assert is_pointed(cone) == reference_is_pointed(cone) == expected


@pytest.mark.parametrize("kind", KINDS)
def test_certificates_are_unchanged_and_validate(kind):
    for cone, pts in cases(kind, 3):
        for v in probe_vectors(cone, pts):
            m = cone_membership(cone, v)
            assert m == reference_cone_membership(cone, v)
            assert m.member == cone_contains(cone, v)
            assert validate_membership(cone, v, m) == []


def test_a_certificate_contradicting_the_facet_verdict_is_refused(monkeypatch):
    cone = Cone.build(2, [[1, 0], [0, 1], [1, 1]], False)
    v = (F(1), F(2))
    assert cone_contains(cone, v)
    monkeypatch.setattr(conedom.cones, "_solve_membership", lambda *_, **__: ConeMembership(False))
    with pytest.raises(RuntimeError, match="contradicts"):
        cone_membership(cone, v)


def test_a_cone_above_the_facet_work_bound_keeps_the_lp(monkeypatch):
    rng = random.Random("facet-work-bound")
    gens = above_the_work_bound(rng).generators
    for count, over in ((7, True), (6, False)):
        cone = Cone(4, gens[:count], False)
        assert (cone.facets is None) == over
        pts = rand_points(rng, cone, big=False)
        probes = probe_vectors(cone, pts)  # the origin included, without the flag
        expected = [lp_contains(cone, v) for v in probes]
        solved = recording_lps(monkeypatch)
        assert [cone_contains(cone, v) for v in probes] == expected
        assert solved == (probes if over else [])  # rank 4: every probe is on the span
        assert True in expected and False in expected
        monkeypatch.undo()


def test_facets_are_built_once_and_shared_across_origin_flags(monkeypatch):
    built = []
    real = conedom.cones.cone_facets
    monkeypatch.setattr(conedom.cones, "cone_facets", lambda *a: built.append(a) or real(*a))
    cone = Cone.build(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], False)
    pts = [(F(0), F(0), F(0)), (F(1), F(1), F(0)), (F(0), F(1), F(1))]
    assert is_pointed(cone)
    assert relate(with_origin(cone, True), pts[0], pts[1]) is Comparability.UP
    assert pareto_optima_finite(FinitePointSet(pts), cone).points == tuple(pts[1:])
    assert len(built) == 1
    assert k_closure(cone).facets is cone.facets is not None


@pytest.mark.parametrize("kind", [*(kind for kind, (_, independent) in KINDS.items() if independent), "no_generators"])
def test_independent_generators_read_their_facets_from_the_elimination(kind, monkeypatch):
    real = conedom.cones.cone_facets
    monkeypatch.setattr(conedom.cones, "cone_facets", lambda *a: pytest.fail("cone_facets was called"))
    seen = []
    for cone, pts in cases(kind):
        assert cone.span_solver.unique
        ConeOrder(cone, pts.points).maxima()
        relate(cone, pts.points[0], pts.points[1])
        seen.append((cone, pts, cone.facets))
    monkeypatch.undo()
    for cone, pts, facets in seen:
        reference = real(cone.dimension, cone.generator_view.points)
        assert len(facets.equations) == len(reference.equations) == cone.dimension - cone.span_solver.rank
        for v in probe_vectors(cone, pts):
            _, q = integer_multiple(v)
            for interior in (False, True):
                assert facets.contains(q, interior) == reference.contains(q, interior)


@pytest.mark.parametrize("kind", KINDS)
def test_public_entry_points_match_the_pairwise_lp_reference(kind):
    for cone, pts in cases(kind, 3):
        assert is_pointed(cone) == lp_pointed(cone)
        for x in pts.points[:6]:
            for y in pts.points[:6]:
                assert relate(cone, x, y) is ref_relate(cone, x, y, lp_contains)
        for subset in (pts.points, pts.points[::2]):
            s = FinitePointSet(subset)
            assert pareto_optima_finite(s, cone).points == ref_optima(subset, cone, lp_contains)
            assert is_antichain(s, cone) == (ref_first_pair(subset, cone, True, lp_contains) is None)


# --- many optima: points near an antichain ----------------------------------------


def level_steps(phi):
    """Vectors w_j = phi_j e_0 - phi_0 e_j, each with phi.w_j = 0."""
    dim = len(phi)
    return [tuple(F(phi[j]) if d == 0 else F(-phi[0]) if d == j else F(0) for d in range(dim)) for j in range(1, dim)]


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(list(KINDS)),
    seed=st.integers(min_value=0, max_value=2**32),
    dim=st.integers(min_value=2, max_value=4),
    contains_zero=st.booleans(),
    data=st.data(),
)
def test_optima_of_points_near_an_antichain_match_the_reference(kind, seed, dim, contains_zero, data):
    """Points on one level of phi, the cone's positive functional where it
    has one (else a random positive direction), so that on a pointed cone
    every point is an optimum; then a few of them moved by a cone step or
    off the level, which makes some points comparable."""
    make, _ = KINDS[kind]
    rng = random.Random(seed)
    cone = make(rng, dim, contains_zero)
    dim = cone.dimension
    pointed_phi = cone.positive_functional if cone.generators else None
    phi = pointed_phi or tuple(rng.randint(1, 5) for _ in range(dim))
    steps = level_steps(phi)
    base = rand_point(rng, dim)
    coefficients = st.lists(st.integers(min_value=-3, max_value=3), min_size=len(steps), max_size=len(steps))
    level = [
        reduce(vadd, (vscale(F(a, 2), w) for a, w in zip(combination, steps)), base)
        for combination in data.draw(st.lists(coefficients, min_size=1, max_size=14))
    ]
    pts = list(dict.fromkeys(level))
    if pointed_phi is not None:
        assert pareto_optima_finite(FinitePointSet(tuple(pts)), cone).points == tuple(pts)
    for i in data.draw(st.lists(st.integers(min_value=0, max_value=len(pts) - 1), max_size=4)):
        if data.draw(st.booleans()) and cone.generators:
            pts[i] = vadd(pts[i], rand_cone_member(rng, k_closure(cone), strict=False))
        else:
            pts[i] = vadd(pts[i], tuple(F(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(dim)))
    pts = tuple(dict.fromkeys(pts))
    expected = ref_optima(pts, cone)
    assert pareto_optima_finite(FinitePointSet(pts), cone).points == expected
    assert tuple(pts[i] for i in ConeOrder(cone, pts).maxima()) == expected


# --- classes of tied coordinates: points along the lineality space -------------------


def all_pairs_optima(pts, cone):
    """The points that no other point lies above, one `cone_contains`
    question per ordered pair."""
    return tuple(y for y in pts if not any(t != y and cone_contains(cone, vsub(t, y)) for t in pts))


@st.composite
def cones_with_tied_classes(draw):
    """A cone of a `KINDS` kind, with the origin flag drawn, or a `shaped_cones`
    draw (not pointed, rank deficient, with a zero generator, or several);
    then distinct points: a few base points, each with a cone step on top,
    and, on a cone that is not pointed, its twins p + l (a class of two) or
    p + l and p - l (a class of three) for a lineality vector l, some of
    them shifted by the same cone step."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    if draw(st.booleans()):
        cone = KINDS[draw(st.sampled_from(list(KINDS)))][0](rng, draw(st.integers(2, 4)), draw(st.booleans()))
    else:
        cone = draw(shaped_cones())
    dim = cone.dimension
    steps = [g for g in cone.generators if any(g)]
    lines = [g for g in steps if cone_contains(cone, vneg(g))]
    pts = []
    for t in range(draw(st.integers(min_value=1, max_value=4))):
        p = rand_point(rng, dim)
        step = rand_cone_member(rng, k_closure(cone), strict=False) if steps else None
        group = [p]
        if lines:
            line = vscale(F(rng.randint(1, 3), rng.choice((1, 2))), rng.choice(lines))
            group.append(vadd(p, line))
            if t == 0 or draw(st.booleans()):
                group.append(vsub(p, line))
        pts += group
        if step is not None:
            pts += [vadd(q, step) for q in group[: draw(st.integers(min_value=1, max_value=len(group)))]]
    return cone, tuple(dict.fromkeys(pts))


@settings(max_examples=300, deadline=None)
@given(cones_with_tied_classes())
def test_optima_with_tied_classes_match_the_all_pairs_reference(case):
    cone, pts = case
    expected = all_pairs_optima(pts, cone)
    assert pareto_optima_finite(FinitePointSet(pts), cone).points == expected
    assert tuple(pts[i] for i in ConeOrder(cone, pts).maxima()) == expected
