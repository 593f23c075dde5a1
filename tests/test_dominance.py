"""Dominating elements, hull decomposition, and finite optima.

The chain-recursion cases are frozen from hand runs written out in the
comments; randomized sections re-validate every certificate by direct
arithmetic and compare optima against brute-force enumeration.
"""

import random
from fractions import Fraction as F

import pytest

from conedom.cones import Cone, cone_contains, k_closure
from conedom.dominance import (
    OutsideHullError,
    check_equivalences,
    decompose_in_hulls,
    dominated_element,
    dominating_element,
    dominating_element_chain,
    is_pareto_in_hull,
    pareto_optima_finite,
    validate_outside_hull,
    validate_certificate,
)
from conedom.instances import (
    rand_decomposable,
    rand_hull_point,
    rand_pointed_cone,
    rand_point,
)
from conedom.linalg import ZERO, vdot, vsub
from conedom.sets import ChainSet, DecomposableSet, FinitePointSet, materialize

ORTHANT = Cone.build(2, [[1, 0], [0, 1]], True)


class TestChainConstruction:
    def test_up_branch_returns_the_chain_top(self):
        # Support is {(0,0), (2,3)} (the middle point has weight zero).
        # Recursion: tail gives z0 = (2,3); (0,0) relates Up to (2,3), so
        # (2,3) dominates the whole combination y = (1, 3/2).
        chain = ChainSet.build([(0, 0), (1, 1), (2, 3)], ORTHANT)
        z, c = dominating_element_chain(
            (F(1), F(3, 2)), (F(1, 2), F(0), F(1, 2)), chain, ORTHANT
        )
        assert z == (F(2), F(3))
        assert c == (F(1), F(3, 2))
        assert cone_contains(ORTHANT, c)

    def test_down_branch_keeps_the_first_point(self):
        # Listing the top first exerces the Down branch: the tail gives
        # z0 = (0,0) and (2,3) relates Down to it, so (2,3) wins.
        chain = ChainSet.build([(2, 3), (0, 0)], ORTHANT)
        z, c = dominating_element_chain(
            (F(1), F(3, 2)), (F(1, 2), F(1, 2)), chain, ORTHANT
        )
        assert z == (F(2), F(3))
        assert c == (F(1), F(3, 2))

    def test_single_point_chain(self):
        chain = ChainSet.build([(1, 1)], ORTHANT)
        z, c = dominating_element_chain((F(1), F(1)), (F(1),), chain, ORTHANT)
        assert z == (F(1), F(1))
        assert c == (F(0), F(0))

    def test_rejects_bad_coefficients(self):
        chain = ChainSet.build([(0, 0), (1, 1)], ORTHANT)
        y = (F(1, 2), F(1, 2))
        with pytest.raises(ValueError, match="sum to one"):
            dominating_element_chain(y, (F(1, 2), F(1, 4)), chain, ORTHANT)
        with pytest.raises(ValueError, match="nonnegative"):
            dominating_element_chain(y, (F(3, 2), F(-1, 2)), chain, ORTHANT)
        with pytest.raises(ValueError, match="count"):
            dominating_element_chain(y, (F(1),), chain, ORTHANT)
        with pytest.raises(ValueError, match="reproduce"):
            dominating_element_chain((F(0), F(1)), (F(1, 2), F(1, 2)), chain, ORTHANT)

    def test_rejects_cone_without_the_origin(self):
        strict = Cone.build(2, [[1, 0], [0, 1]], False)
        chain = ChainSet.build([(0, 0), (1, 1)], strict)
        with pytest.raises(ValueError, match="origin"):
            dominating_element_chain(
                (F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)), chain, strict
            )


class TestDecomposeInHulls:
    def test_blocks_reproduce_the_target(self):
        c1 = ChainSet.build([(0, 0), (1, 1), (2, 3)], ORTHANT)
        c2 = ChainSet.build([(0, 0), (F(1, 2), 1)], ORTHANT)
        d = DecomposableSet((c1, c2))
        y = (F(1), F(3, 2))
        dec = decompose_in_hulls(y, d)
        assert len(dec.blocks) == 2
        for block in dec.blocks:
            assert sum(block) == 1 and all(c >= 0 for c in block)
        parts = dec.summand_points(d)
        total = tuple(a + b for a, b in zip(parts[0], parts[1]))
        assert total == y

    def test_outside_point_raises_with_certificate(self):
        c1 = ChainSet.build([(0, 0), (1, 1)], ORTHANT)
        d = DecomposableSet((c1,))
        with pytest.raises(OutsideHullError) as exc_info:
            decompose_in_hulls((F(5), F(0)), d)
        err = exc_info.value
        # f.p + c >= 0 on every summand point, yet f.y + sum(c) < 0.
        f, offsets = err.functional, err.offsets
        for c, summand in zip(offsets, d.summands):
            assert all(vdot(f, p) + c >= 0 for p in summand.base.points)
        assert vdot(f, (F(5), F(0))) + sum(offsets, ZERO) < 0
        assert validate_outside_hull((F(5), F(0)), f, offsets, d) == []
        lowered = tuple(c - 1 for c in offsets)
        assert "summand 0" in validate_outside_hull((F(5), F(0)), f, lowered, d)[0]
        assert validate_outside_hull((F(1), F(1)), f, offsets, d) != []
        assert validate_outside_hull((F(5), F(0)), f, offsets + (ZERO,), d) != []


class TestDominatingElement:
    def test_certificate_validates_and_sits_in_the_set(self):
        c1 = ChainSet.build([(0, 0), (1, 1), (2, 3)], ORTHANT)
        c2 = ChainSet.build([(0, 0), (F(1, 2), 1)], ORTHANT)
        d = DecomposableSet((c1, c2))
        cert = dominating_element((F(1), F(3, 2)), d)
        assert validate_certificate(cert, d) == []
        assert cert.witness in materialize(d).points
        assert cone_contains(k_closure(ORTHANT), vsub(cert.witness, cert.target))
        assert cert.direction == "witness_dominates"

    def test_mirrored_search_finds_a_dominated_point(self):
        c1 = ChainSet.build([(0, 0), (1, 1), (2, 3)], ORTHANT)
        d = DecomposableSet((c1,))
        cert = dominated_element((F(1), F(3, 2)), d)
        assert validate_certificate(cert, d) == []
        assert cert.witness in materialize(d).points
        assert cone_contains(k_closure(ORTHANT), vsub(cert.target, cert.witness))
        assert cert.direction == "witness_dominated"

    def test_random_instances_round_trip(self):
        rng = random.Random(101)
        for _ in range(40):
            dim = rng.choice((2, 3))
            d = rand_decomposable(rng, rand_pointed_cone(rng, dim, True), 2, 4)
            y = rand_hull_point(rng, d)
            cert = dominating_element(y, d)
            assert validate_certificate(cert, d) == []
            assert cert.witness in materialize(d).points

    def test_tampered_certificates_are_rejected(self):
        c1 = ChainSet.build([(0, 0), (2, 3)], ORTHANT)
        d = DecomposableSet((c1,))
        cert = dominating_element((F(1), F(3, 2)), d)
        bad_witness = type(cert)(
            target=cert.target,
            witness=(F(9), F(9)),
            cone_vector=cert.cone_vector,
            summand_witnesses=cert.summand_witnesses,
            decomposition=cert.decomposition,
            direction=cert.direction,
        )
        assert validate_certificate(bad_witness, d) != []
        bad_vector = type(cert)(
            target=cert.target,
            witness=cert.witness,
            cone_vector=(F(-1), F(0)),
            summand_witnesses=cert.summand_witnesses,
            decomposition=cert.decomposition,
            direction=cert.direction,
        )
        assert validate_certificate(bad_vector, d) != []


class TestParetoOptima:
    def test_triangle_under_the_orthant(self):
        # (0,0) is below both others; (2,0) and (0,2) are incomparable.
        s = FinitePointSet.build([(0, 0), (2, 0), (0, 2)])
        optima = pareto_optima_finite(s, ORTHANT)
        assert set(optima.points) == {(F(2), F(0)), (F(0), F(2))}

    def test_agrees_with_brute_force(self):
        rng = random.Random(103)
        for _ in range(30):
            draw = rand_pointed_cone(rng, 2, rng.random() < 0.5)
            pts = FinitePointSet.build(
                [rand_point(rng, 2) for _ in range(rng.randint(1, 7))]
            )
            optima = set(pareto_optima_finite(pts, draw.cone).points)
            expected = {
                y
                for y in pts.points
                if not any(
                    t != y and cone_contains(draw.cone, vsub(t, y))
                    for t in pts.points
                )
            }
            assert optima == expected

    def test_hull_optimality_on_the_triangle(self):
        chain_a = ChainSet.build([(0, 0), (2, 0)], Cone.build(2, [[1, 0]], True))
        # A one-generator cone: only moves along +e1 count as domination.
        d = DecomposableSet((chain_a,))
        # (2,0) cannot move further right inside the hull; (0,0) can.
        assert is_pareto_in_hull((F(2), F(0)), d)
        assert not is_pareto_in_hull((F(0), F(0)), d)

    def test_hull_optimality_requires_a_pointed_cone(self):
        line = Cone.build(2, [[1, 0], [-1, 0]], True)
        chain = ChainSet.build([(0, 0), (1, 0)], line)
        d = DecomposableSet((chain,))
        with pytest.raises(ValueError, match="pointed"):
            is_pareto_in_hull((F(0), F(0)), d)


class TestCheckEquivalences:
    def test_hand_instance_passes_all(self):
        c1 = ChainSet.build([(0, 0), (1, 1), (2, 3)], ORTHANT)
        c2 = ChainSet.build([(0, 0), (F(1, 2), 1)], ORTHANT)
        report = check_equivalences(DecomposableSet((c1, c2)))
        assert report.all_pass()
        assert report.origin_toggle_invariant
        assert report.hull_equivalence is True
        assert report.maximals_agree is True
        # The top of the sum dominates everything: single optimum.
        assert report.optima.sorted_points() == ((F(5, 2), F(4)),)

    def test_non_pointed_cone_reports_none_for_hull_checks(self):
        line = Cone.build(2, [[1, 0], [-1, 0]], True)
        chain = ChainSet.build([(0, 0), (1, 0)], line)
        report = check_equivalences(DecomposableSet((chain,)))
        assert report.hull_equivalence is None
        assert report.maximals_agree is None
        assert report.all_pass()  # None means unevaluated, not failed

    def test_random_pointed_instances_pass(self):
        rng = random.Random(107)
        for _ in range(20):
            d = rand_decomposable(rng, rand_pointed_cone(rng, 2, True), 2, 3)
            assert check_equivalences(d).all_pass()
