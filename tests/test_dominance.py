"""Dominating elements, hull decomposition, and finite optima.

The chain cases are frozen from hand runs written out in the comments;
randomized sections re-validate every certificate by direct arithmetic
and compare optima against brute-force enumeration. The support-top scan
and the integer certificate check are compared with the `Fraction`
recursion and validator they replaced, and `dominated_element` with the
construction under the negated cone it replaced, kept here as references.
"""

import importlib
import random
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedom.cones import (
    Comparability,
    Cone,
    ConeOrder,
    _SpanSolver,
    cone_contains,
    k_closure,
    negate,
    relate,
)
from conedom.dominance import (
    Decomposition,
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
from conedom.linalg import ZERO, vadd, vcombination, vdot, vneg, vscale, vsub, vzero
from conedom.sets import ChainSet, DecomposableSet, FinitePointSet, materialize

ORTHANT = Cone.build(2, [[1, 0], [0, 1]], True)


def reference_dominate_support(support, cone):
    """The recursion that found the chain point before the support-top scan.

    It peels the first listed point of `support` ((point, coefficient)
    pairs), recurses on the renormalized tail and keeps the tail's point
    when the first relates Up or Both to it.
    """
    if len(support) == 1:
        return support[0][0]
    y1, a1 = support[0]
    rest_mass = 1 - a1
    tail = [(p, c / rest_mass) for p, c in support[1:]]
    z0 = reference_dominate_support(tail, cone)
    comp = relate(cone, y1, z0)
    if comp in (Comparability.UP, Comparability.BOTH):
        return z0
    if comp is Comparability.DOWN:
        return y1
    raise ValueError(f"chain points {y1} and {z0} are incomparable; corrupted chain input")


def reference_validate_certificate(cert, d):
    """The `Fraction` form of `validate_certificate`, kept as its oracle:
    the same messages in the same order, from sums and products taken on
    the rationals as given."""
    errs = []
    kc = k_closure(d.cone)
    blocks = cert.decomposition.blocks
    if len(blocks) != len(d.summands):
        return ["decomposition block count does not match the summands"]
    for s, (block, summand) in enumerate(zip(blocks, d.summands)):
        if len(block) != len(summand.base):
            errs.append(f"block {s} length mismatch")
            continue
        if any(c < 0 for c in block):
            errs.append(f"block {s} has a negative coefficient")
        if sum(block) != 1:
            errs.append(f"block {s} does not sum to one")
    if errs:
        return errs
    total = vzero(d.dimension)
    for block, summand in zip(blocks, d.summands):
        for c, p in zip(block, summand.base.points):
            total = vadd(total, vscale(c, p))
    if total != cert.target:
        errs.append("decomposition does not reproduce the target")
    if len(cert.summand_witnesses) != len(d.summands):
        errs.append("per-summand witness count mismatch")
        return errs
    for s, (w, summand) in enumerate(zip(cert.summand_witnesses, d.summands)):
        if w not in summand.base:
            errs.append(f"summand witness {s} is not a point of summand {s}")
    acc = cert.summand_witnesses[0]
    for w in cert.summand_witnesses[1:]:
        acc = vadd(acc, w)
    if acc != cert.witness:
        errs.append("witness is not the sum of the per-summand points")
    expected = (
        vsub(cert.witness, cert.target)
        if cert.direction == "witness_dominates"
        else vsub(cert.target, cert.witness)
    )
    if expected != cert.cone_vector:
        errs.append("cone vector does not match witness minus target")
    if not cone_contains(kc, cert.cone_vector):
        errs.append("cone vector is outside the closed cone")
    return errs


def reference_dominated_element(y, d):
    """`dominated_element` as it was before it read each chain's order
    downward: `dominating_element` on the set rebuilt under the negated
    cone, with the cone vector and the direction flipped."""
    flipped_cone = negate(d.cone)
    flipped = DecomposableSet(tuple(ChainSet(s.base, flipped_cone) for s in d.summands))
    cert = dominating_element(y, flipped)
    return replace(cert, cone_vector=vsub(y, cert.witness), direction="witness_dominated")


# One cone list per kind. Every kind answers order questions through its
# facet coordinates; the independent rank-deficient cone's have an
# equation part.
CONE_KINDS = {
    "simplicial": [
        Cone.build(2, [[1, 0], [0, 1]], True),
        Cone.build(2, [[2, 1], [-1, 3]], False),
        Cone.build(3, [[1, 0, 0], [1, 1, 0], [0, 1, 2]], True),
    ],
    "nonsimplicial": [
        Cone.build(2, [[1, 0], [1, 1], [0, 1]], True),
        Cone.build(3, [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]], False),
    ],
    "nonpointed": [
        Cone.build(2, [[1, 0], [-1, 0], [0, 1]], True),  # a half-plane: every set is a chain
        Cone.build(3, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]], False),
    ],
    "rank_deficient": [
        Cone.build(3, [[1, 0, 0], [1, 1, 0]], True),  # independent, rank 2 of 3
        Cone.build(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0]], False),  # dependent, rank 2 of 3
        Cone.build(2, [[1, 1], [-1, -1]], True),  # a line
    ],
    "zero_generator": [
        Cone.build(2, [[1, 0], [0, 0], [0, 1]], False),
    ],
}
ALL_CONES = [cone for cones in CONE_KINDS.values() for cone in cones]


def _chain_points(rng, cone, size):
    """Up to `size` distinct points, each the last plus a random member of the
    closed cone (so a chain under it), listed in a shuffled order."""
    p = tuple(F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(cone.dimension))
    pts = [p]
    for _ in range(size - 1):
        for g in cone.generators:
            p = vadd(p, vscale(F(rng.randint(0, 2), rng.choice((1, 2, 3))), g))
        pts.append(p)
    pts = list(dict.fromkeys(pts))
    rng.shuffle(pts)
    return pts


def _tied_chain_points(rng, cone, size):
    """`_chain_points`, plus, on a cone that holds a line, copies of about
    half the points moved along it: each copy is tied with its point, in
    both directions."""
    pts = _chain_points(rng, cone, size)
    line = next((g for g in cone.generators if any(g) and vneg(g) in cone.generators), None)
    if line is not None:
        pts += [vadd(p, vscale(F(rng.choice((-2, -1, 1, 2))), line)) for p in pts if rng.random() < 0.5]
        pts = list(dict.fromkeys(pts))
        rng.shuffle(pts)
    return pts


def _tied_sum(rng, cone, max_points):
    sizes = [rng.randint(1, max_points) for _ in range(rng.randint(1, 3))]
    return DecomposableSet(tuple(ChainSet.build(_tied_chain_points(rng, cone, k), cone) for k in sizes))


def _coefficients(rng, k):
    weights = [rng.choice((0, 0, 1, 2, 5)) for _ in range(k)]
    if not any(weights):
        weights[rng.randrange(k)] = 1
    return tuple(F(w, sum(weights)) for w in weights)


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

    def test_rejects_a_target_of_another_dimension(self):
        chain = ChainSet.build([(0, 0), (1, 1)], ORTHANT)
        with pytest.raises(ValueError, match="reproduce"):
            dominating_element_chain((F(1, 2),), (F(1, 2), F(1, 2)), chain, ORTHANT)

    def test_rejects_cone_without_the_origin(self):
        strict = Cone.build(2, [[1, 0], [0, 1]], False)
        chain = ChainSet.build([(0, 0), (1, 1)], strict)
        with pytest.raises(ValueError, match="origin"):
            dominating_element_chain(
                (F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)), chain, strict
            )


class TestSupportTopAgainstTheRecursion:
    def _compare(self, chain, cone, rng, rounds=6):
        pts = chain.base.points
        for _ in range(rounds):
            coeffs = _coefficients(rng, len(pts))
            y = vzero(len(pts[0]))
            for c, p in zip(coeffs, pts):
                y = vadd(y, vscale(c, p))
            support = [(p, c) for p, c in zip(pts, coeffs) if c > 0]
            try:
                expected = reference_dominate_support(support, cone)
            except ValueError:
                with pytest.raises(ValueError, match="incomparable"):
                    dominating_element_chain(y, coeffs, chain, cone)
                continue
            z, c = dominating_element_chain(y, coeffs, chain, cone)
            assert z == expected
            assert c == vsub(z, y)

    @pytest.mark.parametrize("kind", sorted(CONE_KINDS))
    def test_every_cone_kind(self, kind):
        rng = random.Random(f"support-top/{kind}")
        for cone in CONE_KINDS[kind]:
            for _ in range(25):
                chain = ChainSet.build(_chain_points(rng, cone, rng.randint(1, 6)), cone)
                self._compare(chain, k_closure(cone), rng)

    def test_tied_top_points_resolve_to_the_last_listed(self):
        # Under the half-plane y >= 0 the points of one height are tied
        # (Both); (2,1), (5,1) and (3,1) share the top height.
        half_plane = CONE_KINDS["nonpointed"][0]
        chain = ChainSet.build([(0, 0), (2, 1), (1, 0), (5, 1), (3, 1)], half_plane)
        coeffs = (F(1, 5),) * 5
        y = (F(11, 5), F(3, 5))
        z, _ = dominating_element_chain(y, coeffs, chain, half_plane)
        assert z == (F(3), F(1))
        support = list(zip(chain.base.points, coeffs))
        assert reference_dominate_support(support, half_plane) == z
        # Without the last point the last listed tie is (5,1).
        z, _ = dominating_element_chain(
            (F(2), F(1, 2)), (F(1, 4),) * 4 + (F(0),), chain, half_plane
        )
        assert z == (F(5), F(1))

    def test_a_passed_cone_other_than_the_chains_own(self):
        # The chain is built under one cone and queried under another, under
        # which its points may be no chain: results and errors must agree.
        rng = random.Random("support-top/other-cone")
        raised = 0
        for _ in range(200):
            own, other = rng.sample(ALL_CONES, 2)
            if own.dimension != other.dimension:
                continue
            chain = ChainSet.build(_chain_points(rng, own, rng.randint(2, 6)), own)
            self._compare(chain, k_closure(other), rng, rounds=3)
            n = len(chain.base)
            try:
                reference_dominate_support([(p, F(1, n)) for p in chain.base.points], k_closure(other))
            except ValueError:
                raised += 1
        assert raised > 0

    def test_incomparable_points_under_the_passed_cone_raise(self):
        chain = ChainSet.build([(0, 0), (1, 0), (0, 1)], CONE_KINDS["nonpointed"][0])
        with pytest.raises(ValueError, match="incomparable"):
            dominating_element_chain((F(1, 2), F(1, 2)), (F(0), F(1, 2), F(1, 2)), chain, ORTHANT)


def _tampered(cert, d, rng):
    """One field of a certificate changed: a vector entry shifted or negated,
    a length changed, a summand witness swapped for another point of its
    summand, a block entry moved between coefficients, a block dropped, or
    the direction flipped."""
    field = rng.choice(
        ("target", "witness", "cone_vector", "summand_witnesses", "blocks", "direction")
    )
    kind = rng.choice(("shift", "shift", "negate", "length"))
    shift = rng.choice((F(1), F(-1), F(1, 3), F(1, 10**20)))

    def bent(vec):
        vec = list(vec)
        if kind == "length":
            return tuple(vec[:-1] if rng.random() < 0.5 else vec + [ZERO])
        k = rng.randrange(len(vec))
        vec[k] = -vec[k] if kind == "negate" else vec[k] + shift
        return tuple(vec)

    if field == "direction":
        flipped = "witness_dominated" if cert.direction == "witness_dominates" else "witness_dominates"
        return replace(cert, direction=flipped)
    if field in ("target", "witness", "cone_vector"):
        return replace(cert, **{field: bent(getattr(cert, field))})
    if field == "summand_witnesses":
        ws = list(cert.summand_witnesses)
        s = rng.randrange(len(ws))
        if kind == "length":
            ws = ws[:-1] if rng.random() < 0.5 else ws + [ws[0]]
        elif kind == "negate":
            ws[s] = rng.choice(d.summands[s].base.points)
        else:
            ws[s] = bent(ws[s])
        return replace(cert, summand_witnesses=tuple(ws))
    blocks = list(cert.decomposition.blocks)
    s = rng.randrange(len(blocks))
    if kind == "length" and rng.random() < 0.3:
        blocks = blocks[:-1] if len(blocks) > 1 else blocks + blocks
    elif kind == "negate" and len(blocks[s]) > 1:
        # Move mass between two coefficients: the sum stays one.
        block = list(blocks[s])
        i, j = rng.sample(range(len(block)), 2)
        block[i], block[j] = block[i] + shift, block[j] - shift
        blocks[s] = tuple(block)
    else:
        blocks[s] = bent(blocks[s])
    return replace(cert, decomposition=Decomposition(tuple(blocks)))


def _outcome(validate, cert, d):
    """The message list, or the error raised on a vector of the wrong length."""
    try:
        return validate(cert, d)
    except ValueError as exc:
        return type(exc)


class TestValidatorAgainstTheFractionReference:
    def _sets(self, rng):
        for kind in sorted(CONE_KINDS):
            for cone in CONE_KINDS[kind]:
                for _ in range(4):
                    chains = tuple(
                        ChainSet.build(_chain_points(rng, cone, rng.randint(1, 5)), cone)
                        for _ in range(rng.randint(1, 3))
                    )
                    yield DecomposableSet(chains)
        for _ in range(20):
            yield rand_decomposable(rng, rand_pointed_cone(rng, rng.choice((2, 3)), True), 2, 4)

    def test_messages_match_on_valid_and_tampered_certificates(self):
        rng = random.Random(20261018)
        total = flagged = 0
        mismatches = []
        for d in self._sets(rng):
            y = rand_hull_point(rng, d)
            for find in (dominating_element, dominated_element):
                cert = find(y, d)
                assert validate_certificate(cert, d) == [] == reference_validate_certificate(cert, d)
                for _ in range(25):
                    bad = _tampered(cert, d, rng)
                    expected = _outcome(reference_validate_certificate, bad, d)
                    if _outcome(validate_certificate, bad, d) != expected:
                        mismatches.append((d, bad))
                    total += 1
                    flagged += expected != []
        assert mismatches == []
        assert 2 * flagged >= total

    def test_every_message_is_reached(self):
        rng = random.Random(20261019)
        seen = set()
        for d in self._sets(rng):
            cert = dominating_element(rand_hull_point(rng, d), d)
            for _ in range(25):
                messages = _outcome(validate_certificate, _tampered(cert, d, rng), d)
                if messages is not ValueError:
                    seen.update(re.sub(r"\d+", "s", m) for m in messages)
        assert seen == {
            "decomposition block count does not match the summands",
            "block s length mismatch",
            "block s has a negative coefficient",
            "block s does not sum to one",
            "decomposition does not reproduce the target",
            "per-summand witness count mismatch",
            "summand witness s is not a point of summand s",
            "witness is not the sum of the per-summand points",
            "cone vector does not match witness minus target",
            "cone vector is outside the closed cone",
        }


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
        parts = [vcombination(block, s.base.points, 2) for block, s in zip(dec.blocks, d.summands)]
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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_dominated_element_on_random_sets(self, data):
        # Chains are walks along the closed cone, so they are chains under
        # any cone kind; each is listed in a drawn order.
        kind = data.draw(st.sampled_from(("simplicial", "nonsimplicial", "nonpointed")))
        cone = data.draw(st.sampled_from(CONE_KINDS[kind]))
        start = st.fractions(min_value=-4, max_value=4, max_denominator=2)
        step = st.fractions(min_value=0, max_value=2, max_denominator=3)
        chains = []
        for _ in range(data.draw(st.integers(1, 3))):
            p = tuple(data.draw(start) for _ in range(cone.dimension))
            pts = [p]
            for _ in range(data.draw(st.integers(0, 4))):
                for g in cone.generators:
                    p = vadd(p, vscale(data.draw(step), g))
                pts.append(p)
            chains.append(ChainSet.build(data.draw(st.permutations(pts)), cone))
        d = DecomposableSet(tuple(chains))
        y = vzero(cone.dimension)
        for chain in chains:
            weights = [data.draw(st.integers(0, 5)) for _ in chain.base.points]
            if not any(weights):
                weights[0] = 1
            for w, p in zip(weights, chain.base.points):
                y = vadd(y, vscale(F(w, sum(weights)), p))
        cert = dominated_element(y, d)
        assert validate_certificate(cert, d) == []
        assert reference_validate_certificate(cert, d) == []
        assert cert.direction == "witness_dominated"
        assert cert.witness in materialize(d).points

    def test_random_instances_round_trip(self):
        rng = random.Random(101)
        for _ in range(40):
            dim = rng.choice((2, 3))
            d = rand_decomposable(rng, rand_pointed_cone(rng, dim, True), 2, 4)
            y = rand_hull_point(rng, d)
            cert = dominating_element(y, d)
            assert validate_certificate(cert, d) == []
            assert cert.witness in materialize(d).points

    def test_the_presolve_and_the_simplex_give_the_same_certificates(self, monkeypatch):
        # Decomposition programs with one feasible point are decided by the
        # presolve in `lp_solve`; with it turned off, the simplex must give
        # the same certificates and the same refutations.
        linalg = importlib.import_module("conedom.linalg")
        presolve = linalg._unique_point
        hits = []

        def counted(lp):
            res = presolve(lp)
            hits.append(res is not None)
            return res

        def run(rng):
            out = []
            for _ in range(40):
                dim = rng.choice((2, 3))
                d = rand_decomposable(rng, rand_pointed_cone(rng, dim, True), rng.randint(1, 3), 3)
                y = rand_hull_point(rng, d) if rng.random() < 0.8 else rand_point(rng, dim)
                try:
                    out.append(dominating_element(y, d))
                except OutsideHullError as exc:
                    out.append((exc.functional, exc.offsets))
            return out

        monkeypatch.setattr(linalg, "_unique_point", counted)
        with_presolve = run(random.Random(29))
        monkeypatch.setattr(linalg, "_unique_point", lambda lp: None)
        assert run(random.Random(29)) == with_presolve
        assert any(hits) and not all(hits)

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


class TestDominatedAgainstTheNegatedCone:
    @pytest.mark.parametrize("kind", sorted(CONE_KINDS))
    def test_certificates_match_field_for_field(self, kind):
        rng = random.Random(f"dominated/{kind}")
        tied = 0
        for cone in CONE_KINDS[kind]:
            for _ in range(20):
                d = _tied_sum(rng, cone, 6)
                for _ in range(3):
                    y = rand_hull_point(rng, d)
                    cert = dominated_element(y, d)
                    assert cert == reference_dominated_element(y, d)
                    # A support point other than the summand witness tied with it.
                    for block, chain, w in zip(cert.decomposition.blocks, d.summands, cert.summand_witnesses):
                        k = chain.base.points.index(w)
                        order = chain.order
                        tied += any(
                            c > 0 and i != k and order.above(i, k) and order.above(k, i) for i, c in enumerate(block)
                        )
        if kind in ("nonpointed", "rank_deficient"):
            assert tied > 0

    def test_a_target_outside_the_hull_carries_the_same_refutation(self):
        rng = random.Random("dominated/outside")
        for cone in ALL_CONES:
            d = _tied_sum(rng, cone, 4)
            y = tuple(F(1000 * (k + 1)) for k in range(cone.dimension))
            with pytest.raises(OutsideHullError) as ours:
                dominated_element(y, d)
            with pytest.raises(OutsideHullError) as theirs:
                reference_dominated_element(y, d)
            got, expected = ours.value, theirs.value
            assert (got.target, got.functional, got.offsets) == (expected.target, expected.functional, expected.offsets)
            assert validate_outside_hull(y, got.functional, got.offsets, d) == []


def _count_constructions(patched, *classes):
    """The names of the given classes, once per construction while `patched`
    (a monkeypatch context) is open."""
    built = []
    for cls in classes:

        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)

        patched.setattr(cls, "__init__", counted)
    return built


class TestDominanceBuildsNothingNew:
    """On a built set both directions read each summand's cached order:
    no negated cone, no chain rebuilt under it, no order or elimination of
    its own, and no origin-closed copy of the cone."""

    def test_dominated_element_builds_no_solver_order_or_chain(self, monkeypatch):
        rng = random.Random("dominated/constructions")
        for cone in ALL_CONES:
            d = _tied_sum(rng, cone, 5)
            y = rand_hull_point(rng, d)
            with monkeypatch.context() as patched:
                built = _count_constructions(patched, _SpanSolver, ConeOrder, ChainSet, Cone)
                cert = dominated_element(y, d)
            assert built == []
            assert validate_certificate(cert, d) == []

    def test_dominating_element_on_a_cone_without_the_origin_builds_no_cone(self, monkeypatch):
        rng = random.Random("dominating/constructions")
        strict = [cone for cone in ALL_CONES if not cone.contains_zero]
        assert strict
        for cone in strict:
            d = _tied_sum(rng, cone, 5)
            y = rand_hull_point(rng, d)
            with monkeypatch.context() as patched:
                built = _count_constructions(patched, Cone, _SpanSolver, ConeOrder, ChainSet)
                cert = dominating_element(y, d)
            assert built == []
            assert validate_certificate(cert, d) == []

    def test_validate_certificate_on_a_cone_without_the_origin_builds_no_cone(self, monkeypatch):
        rng = random.Random("validate/constructions")
        for cone in [cone for cone in ALL_CONES if not cone.contains_zero]:
            d = _tied_sum(rng, cone, 5)
            cert = dominating_element(rand_hull_point(rng, d), d)
            with monkeypatch.context() as patched:
                built = _count_constructions(patched, Cone, _SpanSolver, ConeOrder, ChainSet)
                errs = validate_certificate(cert, d)
            assert built == []
            assert errs == []

    def test_a_zero_cone_vector_validates_on_a_cone_without_the_origin(self):
        # Two one-point chains: the target is its own witness, and the zero
        # cone vector lies in the closed cone though not in the cone itself.
        outside = [cone for cone in ALL_CONES if not cone_contains(cone, vzero(cone.dimension))]
        assert outside
        for cone in outside:
            p, q = (F(1),) * cone.dimension, (F(-2, 3),) * cone.dimension
            d = DecomposableSet((ChainSet.build([p], cone), ChainSet.build([q], cone)))
            cert = dominating_element(vadd(p, q), d)
            assert cert.cone_vector == vzero(cone.dimension)
            assert validate_certificate(cert, d) == []


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
