"""Cone membership, pointedness and the induced comparability relation.

Frozen verdicts carry their oracle in a comment; relation laws are
checked on randomly generated cones with certificate-backed members so
that every claimed membership is reproducible by plain arithmetic.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conedom.cones
from conedom.cones import (
    Comparability,
    Cone,
    ConeMembership,
    _SpanSolver,
    cone_contains,
    cone_membership,
    is_pointed,
    k_closure,
    negate,
    relate,
    with_origin,
    _solve_membership,
)
from conedom.instances import rand_cone_member, rand_point, rand_pointed_cone
from conedom.linalg import ONE, ZERO, integer_multiple, is_zero_vec, vadd, vdot, vsub

ORTHANT = Cone.build(2, [[1, 0], [0, 1]], True)
ORTHANT_NO_ZERO = Cone.build(2, [[1, 0], [0, 1]], False)


class TestMembership:
    @pytest.mark.parametrize("dimension", [0, -1])
    def test_a_cone_of_dimension_below_one_is_refused(self, dimension):
        with pytest.raises(ValueError, match="cone dimension must be at least 1"):
            Cone(dimension, (), False)

    def test_member_with_reconstruction(self):
        res = cone_membership(ORTHANT, (F(1), F(2)))
        assert res.member
        gens = ORTHANT.generators
        rebuilt = tuple(
            sum((res.coefficients[i] * gens[i][d] for i in range(2)), ZERO)
            for d in range(2)
        )
        assert rebuilt == (F(1), F(2))
        assert all(c >= 0 for c in res.coefficients)

    def test_non_member_with_functional(self):
        res = cone_membership(ORTHANT, (F(-1), F(2)))
        assert not res.member
        f = res.functional
        assert all(vdot(f, g) >= 0 for g in ORTHANT.generators)
        assert vdot(f, (F(-1), F(2))) < 0

    def test_origin_respects_the_zero_flag(self):
        zero = (F(0), F(0))
        assert cone_contains(ORTHANT, zero)
        assert not cone_contains(ORTHANT_NO_ZERO, zero)

    def test_strict_cone_still_contains_positive_combinations(self):
        assert cone_contains(ORTHANT_NO_ZERO, (F(1), F(0)))
        assert cone_contains(ORTHANT_NO_ZERO, (F(1, 3), F(2)))

    def test_generator_scaling(self):
        # Cones are scale-invariant: 5 * generator is a member.
        assert cone_contains(ORTHANT, (F(5), F(0)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cone_contains(ORTHANT, (F(1), F(1), F(1)))

    def test_redundant_generators_agree_with_the_simplicial_cone(self):
        # A duplicated and a scaled generator force the LP fallback; the
        # verdicts must match the independent-generator fast path.
        rng = random.Random(2024)
        for _ in range(25):
            draw = rand_pointed_cone(rng, 2, contains_zero=True)
            fat = Cone(
                2,
                draw.cone.generators
                + (draw.cone.generators[0],)
                + (tuple(3 * c for c in draw.cone.generators[-1]),),
                True,
            )
            probe = rand_point(rng, 2)
            assert cone_contains(draw.cone, probe) == cone_contains(fat, probe)


class TestPointedness:
    def test_orthant_pointed(self):
        assert is_pointed(ORTHANT)

    def test_single_ray_pointed(self):
        assert is_pointed(Cone.build(2, [[1, 0]], True))

    def test_full_line_not_pointed(self):
        # (1,0) and its negation are both members: C ∩ -C contains (1,0).
        assert not is_pointed(Cone.build(2, [[1, 0], [-1, 0], [0, 1]], True))
        assert not is_pointed(Cone.build(2, [[1, 1], [-1, -1]], True))

    def test_random_simplicial_cones_are_pointed(self):
        rng = random.Random(7)
        for _ in range(20):
            draw = rand_pointed_cone(rng, rng.choice((2, 3)), True)
            assert is_pointed(draw.cone)

    def test_pointed_cone_rejects_negated_members(self):
        rng = random.Random(11)
        for _ in range(20):
            draw = rand_pointed_cone(rng, 2, True)
            closed = k_closure(draw.cone)
            v = rand_cone_member(rng, closed, strict=True)
            assert v != (F(0), F(0))
            assert cone_contains(closed, v)
            assert not cone_contains(closed, tuple(-c for c in v))


class TestRelate:
    def test_orthant_table(self):
        origin, one = (F(0), F(0)), (F(1), F(1))
        assert relate(ORTHANT, origin, one) is Comparability.UP
        assert relate(ORTHANT, one, origin) is Comparability.DOWN
        assert relate(ORTHANT, origin, origin) is Comparability.BOTH
        assert relate(ORTHANT, (F(1), F(0)), (F(0), F(1))) is Comparability.INCOMPARABLE

    def test_equal_points_incomparable_without_the_origin(self):
        p = (F(1), F(1))
        assert relate(ORTHANT_NO_ZERO, p, p) is Comparability.INCOMPARABLE

    def test_antisymmetry_of_the_classification(self):
        mirror = {
            Comparability.UP: Comparability.DOWN,
            Comparability.DOWN: Comparability.UP,
            Comparability.BOTH: Comparability.BOTH,
            Comparability.INCOMPARABLE: Comparability.INCOMPARABLE,
        }
        rng = random.Random(13)
        for _ in range(40):
            draw = rand_pointed_cone(rng, 2, rng.random() < 0.5)
            x, y = rand_point(rng, 2), rand_point(rng, 2)
            assert relate(draw.cone, y, x) is mirror[relate(draw.cone, x, y)]

    def test_negation_swaps_up_and_down(self):
        swap = {
            Comparability.UP: Comparability.DOWN,
            Comparability.DOWN: Comparability.UP,
            Comparability.BOTH: Comparability.BOTH,
            Comparability.INCOMPARABLE: Comparability.INCOMPARABLE,
        }
        rng = random.Random(17)
        for _ in range(40):
            draw = rand_pointed_cone(rng, 2, rng.random() < 0.5)
            x, y = rand_point(rng, 2), rand_point(rng, 2)
            assert relate(negate(draw.cone), x, y) is swap[relate(draw.cone, x, y)]

    def test_adding_a_member_moves_up(self):
        rng = random.Random(19)
        for _ in range(30):
            draw = rand_pointed_cone(rng, 3, True)
            closed = k_closure(draw.cone)
            x = rand_point(rng, 3)
            step = rand_cone_member(rng, closed, strict=False)
            assert relate(closed, x, vadd(x, step)) in (
                Comparability.UP,
                Comparability.BOTH,
            )

    def test_relate_asks_cone_contains_and_builds_no_order(self, monkeypatch):
        # Both directions are the membership verdicts of the two differences,
        # on distinct points and on equal ones, with no `ConeOrder` between.
        built = []
        init = conedom.cones.ConeOrder.__init__
        monkeypatch.setattr(conedom.cones.ConeOrder, "__init__", lambda self, *a: built.append(a) or init(self, *a))
        table = {
            (True, True): Comparability.BOTH,
            (True, False): Comparability.UP,
            (False, True): Comparability.DOWN,
            (False, False): Comparability.INCOMPARABLE,
        }
        rng = random.Random("relate/no-order")
        for _ in range(20):
            dim = rng.choice((2, 3))
            for name, gens in _cone_kinds(rng, dim, True).items():
                for flag in (True, False):
                    cone = Cone(dim, gens, flag)
                    x = rand_point(rng, dim)
                    ys = [x, rand_point(rng, dim)] + [vadd(x, g) for g in gens] + [vsub(x, g) for g in gens]
                    for y in ys:
                        up = reference_cone_contains(cone, vsub(y, x))
                        down = reference_cone_contains(cone, vsub(x, y))
                        assert relate(cone, x, y) is table[up, down], (name, flag, x, y)
        assert built == []


class TestClosureAndNegation:
    def test_k_closure_adds_the_origin_and_keeps_generators(self):
        closed = k_closure(ORTHANT_NO_ZERO)
        assert closed.contains_zero
        assert closed.generators == ORTHANT_NO_ZERO.generators

    def test_negate_flips_generators(self):
        neg = negate(ORTHANT)
        assert neg.generators == ((F(-1), F(0)), (F(0), F(-1)))
        assert neg.contains_zero == ORTHANT.contains_zero
        assert cone_contains(neg, (F(-2), F(-1)))

    def test_sum_of_members_stays_inside_the_convex_closure(self):
        rng = random.Random(23)
        for _ in range(30):
            draw = rand_pointed_cone(rng, 2, True)
            closed = k_closure(draw.cone)
            a = rand_cone_member(rng, closed, strict=False)
            b = rand_cone_member(rng, closed, strict=False)
            assert cone_contains(closed, vadd(a, b))

    def test_strict_members_of_a_pointed_cone_sum_to_nonzero(self):
        # Pointedness kills cancellation: two nonzero members of a cone in
        # an open half-space cannot sum to the origin.
        rng = random.Random(29)
        for _ in range(30):
            draw = rand_pointed_cone(rng, 2, contains_zero=False)
            a = rand_cone_member(rng, draw.cone, strict=True)
            b = rand_cone_member(rng, draw.cone, strict=True)
            total = vadd(a, b)
            assert total != (F(0), F(0))
            assert cone_contains(draw.cone, total)


def reference_off_span_functional(cone, v):
    """The former `_SpanSolver.off_span_functional`, in `Fraction`s."""
    solver = cone.span_solver
    for e in solver.elim[solver.rank :]:
        val = vdot(e, v)
        if val != 0:
            return e if val < 0 else tuple(-c for c in e)
    return None


def reference_solve_unique(cone, v):
    """The former `_SpanSolver.solve_unique`, in `Fraction`s."""
    solver = cone.span_solver
    w = [vdot(e, v) for e in solver.elim]
    if any(w[solver.rank :]):
        return None
    mu = [ZERO] * len(solver.pivots)
    for row, col in solver.pivots:
        mu[col] = w[row]
    return tuple(mu)


def reference_cone_membership(cone, v):
    """The former `cone_membership`: its own decision tree, with the span
    certificates taken in `Fraction`s and the LP called directly."""
    gens = cone.generators
    if is_zero_vec(v):
        if cone.contains_zero:
            return ConeMembership(True, coefficients=(ZERO,) * len(gens))
        for idx, g in enumerate(gens):
            if is_zero_vec(g):
                return ConeMembership(True, coefficients=tuple(F(1) if i == idx else ZERO for i in range(len(gens))))
        if not gens:
            return ConeMembership(False, functional=None)
        return _solve_membership(cone, v, unit_mass=True)
    if not gens:
        return ConeMembership(False, functional=tuple(-c for c in v))
    f = reference_off_span_functional(cone, v)
    if f is not None:
        return ConeMembership(False, functional=f)
    if cone.span_solver.unique:
        mu = reference_solve_unique(cone, v)
        if mu is not None and all(c >= 0 for c in mu):
            return ConeMembership(True, coefficients=mu)
    return _solve_membership(cone, v, unit_mass=False)


def reference_cone_contains(cone, v):
    """The former `cone_contains`: the same decision tree with the span
    verdicts taken in `Fraction`s."""
    if len(v) != cone.dimension:
        raise ValueError("vector dimension does not match the cone")
    if is_zero_vec(v):
        if cone.contains_zero or any(is_zero_vec(g) for g in cone.generators):
            return True
        if not cone.generators:
            return False
        if cone.span_solver.unique:
            return False
        return _solve_membership(cone, v, unit_mass=True).member
    if not cone.generators:
        return False
    if reference_off_span_functional(cone, v) is not None:
        return False
    if cone.span_solver.unique:
        mu = reference_solve_unique(cone, v)
        return mu is not None and all(c >= 0 for c in mu)
    return _solve_membership(cone, v, unit_mass=False).member


def _cone_kinds(rng, dim, contains_zero):
    """One cone of every kind: pointed (simplicial and not), not pointed,
    rank-deficient with independent and with dependent generators, with a
    zero generator, and with no generators."""
    draw = rand_pointed_cone(rng, dim, contains_zero)
    gens = draw.cone.generators
    zero = tuple(F(0) for _ in range(dim))
    return {
        "simplicial": gens,
        "nonsimplicial_pointed": gens + (vadd(vadd(gens[0], gens[1]), draw.guard),),
        "not_pointed": gens + (tuple(-c for c in gens[0]),),
        "rank_deficient": gens[:-1],
        "rank_deficient_dependent": gens[:-1] + (tuple(2 * c for c in gens[0]),),
        "zero_generator": gens + (zero,),
        "no_generators": (),
    }


class TestIntegerVerdictAgainstTheFractionPath:
    def test_every_cone_kind_with_the_origin_toggled(self):
        # Probes: random points (some with numerators near 10^20), members,
        # their negations, generators, off-span shifts and the origin.
        rng = random.Random(20261018)
        seen = {True: 0, False: 0}
        for _ in range(60):
            dim = rng.choice((2, 3))
            for name, gens in _cone_kinds(rng, dim, True).items():
                for flag in (True, False):
                    cone = with_origin(Cone(dim, gens, True), flag)
                    probes = [rand_point(rng, dim) for _ in range(4)]
                    probes.append(tuple(F(10**20 + rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(dim)))
                    probes.append(tuple(F(0) for _ in range(dim)))
                    probes += list(gens)
                    if gens:
                        member = rand_cone_member(rng, Cone(dim, gens, True), strict=False)
                        probes += [member, tuple(-c for c in member), vadd(member, rand_point(rng, dim))]
                    for v in probes:
                        expected = reference_cone_contains(cone, v)
                        assert cone_contains(cone, v) == expected, (name, flag, v)
                        seen[expected] += 1
                        # The certificate, span functional, coefficients or LP's, is unchanged too.
                        assert cone_membership(cone, v) == reference_cone_membership(cone, v), (name, flag, v)
        assert min(seen.values()) > 500

    def test_the_verdict_alone_builds_no_certificate(self, monkeypatch):
        # Wherever the elimination or the facets settle the verdict,
        # `cone_contains` builds no certificate and solves no LP, refutations
        # included: every vector on independent generators, and every
        # nonzero one on dependent generators.
        def refuse(*args, **kwargs):
            raise AssertionError("a certificate was built for a verdict")

        def verdict(cone, v):
            with monkeypatch.context() as patched:
                patched.setattr(conedom.cones, "ConeMembership", refuse)
                patched.setattr(conedom.cones, "_solve_membership", refuse)
                return cone_contains(cone, v)

        rng = random.Random(20261019)
        seen = {True: 0, False: 0}
        for _ in range(30):
            dim = rng.choice((2, 3))
            kinds = _cone_kinds(rng, dim, True)
            for name, gens in kinds.items():
                independent = name in ("simplicial", "rank_deficient", "no_generators")
                for flag in (True, False):
                    cone = Cone(dim, gens, flag)
                    probes = [rand_point(rng, dim) for _ in range(4)] + [tuple(F(0) for _ in range(dim))]
                    probes += [g for g in gens] + [tuple(-c for c in g) for g in gens]
                    for v in probes if independent else [v for v in probes if not is_zero_vec(v)]:
                        expected = reference_cone_contains(cone, v)
                        assert verdict(cone, v) == expected, (name, flag, v)
                        seen[expected] += 1
            zero_generator = Cone(dim, kinds["zero_generator"], False)
            assert verdict(zero_generator, tuple(F(0) for _ in range(dim)))
        assert min(seen.values()) > 100


# --- the elimination against the former Fraction Gauss-Jordan -------------------


def reference_span_solver(dimension, generators):
    """The former `_SpanSolver.__init__`: Gauss-Jordan in `Fraction`s on
    [G | I], each pivot row divided by its pivot. Returns its six fields
    (rank, pivots, unique, elim, row_scales, integer_elim)."""
    n, k = dimension, len(generators)
    rows = [[generators[j][i] for j in range(k)] + [ONE if t == i else ZERO for t in range(n)] for i in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        sel = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == n:
            break
    elim = [tuple(row[k:]) for row in rows]
    row_scales, integer_elim = zip(*(integer_multiple(e) for e in elim))
    return r, pivots, r == k, elim, row_scales, integer_elim


def span_fields(dimension, generators):
    solver = _SpanSolver(dimension, generators)
    return solver.rank, solver.pivots, solver.unique, solver.elim, solver.row_scales, solver.integer_elim


ENTRIES = st.one_of(st.integers(-9, 9), st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 6))))


@st.composite
def generator_lists(draw):
    """Dimension 1-5 and 0-8 generators with `int` and `Fraction` entries:
    fresh ones, zero ones, repeats, negations and combinations of earlier
    ones, and sometimes a coordinate that every generator leaves zero."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(0, 8))
    gens = []
    for _ in range(k):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "negation", "combination") if gens else ("fresh",)))
        if kind == "fresh":
            g = tuple(draw(ENTRIES) for _ in range(n))
        elif kind == "zero":
            g = (0,) * n
        else:
            a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            if kind == "repeat":
                g = a
            elif kind == "negation":
                g = tuple(-x for x in a)
            else:
                u, w = draw(st.integers(-3, 3)), draw(ENTRIES)
                g = tuple(u * x + w * y for x, y in zip(a, b))
        gens.append(g)
    if gens and draw(st.booleans()):
        blank = draw(st.integers(0, n - 1))
        gens = [g[:blank] + (0,) + g[blank + 1 :] for g in gens]
    return n, gens


@settings(max_examples=400, deadline=None)
@given(case=generator_lists())
# A negative determinant (-13) and a left-null row over the scale s = 6.
@example(case=(3, [(F(-1, 2), F(1, 3), 0), (F(1, 3), F(1, 2), 0)]))
@example(case=(1, []))
# Integer generators whose first pivot (-2) and second one are negative,
# with a dependent fourth generator.
@example(case=(3, [(-2, 1, 4), (3, -2, 0), (1, 0, 4), (0, 0, -5)]))
def test_the_elimination_matches_the_fraction_gauss_jordan(case):
    n, gens = case
    assert span_fields(n, gens) == reference_span_solver(n, gens)


def test_the_elimination_matches_on_every_cone_kind():
    # KINDS lives in test_order_coordinates, which imports this module.
    from test_order_coordinates import KINDS, above_the_work_bound

    rng = random.Random(20261020)
    for _ in range(20):
        dim = rng.randint(2, 5)
        cones = [make(rng, dim, rng.random() < 0.5) for make, _ in KINDS.values()]
        cones += [Cone(dim, gens, True) for gens in _cone_kinds(rng, dim, True).values()]
        cones.append(above_the_work_bound(rng))
        for cone in cones:
            # The generators, and their integer view as `cone_facets` reduces it.
            for gens in (cone.generators, cone.generator_view.points):
                assert span_fields(cone.dimension, gens) == reference_span_solver(cone.dimension, gens)
