"""Independent re-derivations the benchmark checks answers against.

Nothing here calls `conedom`: cone membership goes through explicit
inverses of generator bases, Pareto optima through pairwise coordinate
comparison, and 2-D convex hulls through a monotone-chain hull, all in
exact `Fraction` arithmetic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

Vec = tuple[Fraction, ...]


def _inverse(rows: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Gauss-Jordan inverse of a square matrix, None when singular."""
    n = len(rows)
    m = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return [row[n:] for row in m]


@lru_cache(maxsize=4096)
def basis_inverses(generators: tuple[Vec, ...]) -> tuple[tuple[Vec, ...], ...]:
    """Inverses of every square, invertible generator submatrix.

    For generators spanning R^d, v lies in their conic hull iff some
    basis B among them has B^-1 v >= 0 (Caratheodory).
    """
    d = len(generators[0])
    out = []
    for subset in itertools.combinations(generators, d):
        inv = _inverse([[g[i] for g in subset] for i in range(d)])
        if inv is not None:
            out.append(tuple(tuple(row) for row in inv))
    if not out:
        raise ValueError("oracle needs generators that span the space")
    return tuple(out)


def _apply(inv: tuple[Vec, ...], v: Vec) -> Vec:
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in inv)


def in_closed_cone(generators: tuple[Vec, ...], v: Vec) -> bool:
    if not any(v):
        return True
    return any(all(c >= 0 for c in _apply(inv, v)) for inv in basis_inverses(generators))


def decomposition_reproduces(d, blocks, target: Vec) -> bool:
    total = [Fraction(0)] * len(target)
    for block, summand in zip(blocks, d.summands, strict=True):
        if any(c < 0 for c in block) or sum(block) != 1:
            return False
        for c, p in zip(block, summand.base.points, strict=True):
            total = [a + c * b for a, b in zip(total, p)]
    return tuple(total) == target


def pareto_optima(points: tuple[Vec, ...], generators: tuple[Vec, ...]) -> list[Vec]:
    """Points no other point dominates: t - y in the cone for no t != y."""
    coords = [[_apply(inv, p) for p in points] for inv in basis_inverses(generators)]
    keep = []
    for i, y in enumerate(points):
        dominated = any(
            j != i and all(a >= b for a, b in zip(basis[j], basis[i]))
            for basis in coords
            for j in range(len(points))
        )
        if not dominated:
            keep.append(y)
    return keep


def grid_budget(step: Fraction, box, price: Vec, wealth: Fraction) -> list[Vec]:
    axes = []
    for lo, hi in box:
        k = -((-max(lo, Fraction(0))) // step)
        axis = []
        while k * step <= hi:
            axis.append(k * step)
            k += 1
        axes.append(axis)
    return [p for p in itertools.product(*axes) if sum(a * b for a, b in zip(price, p)) <= wealth]


def _cross(o: Vec, a: Vec, b: Vec) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_2d(points) -> list[Vec]:
    """Counter-clockwise hull vertices (Andrew's monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Vec] = []
    upper: list[Vec] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def in_hull_2d(hull: list[Vec], p: Vec) -> bool:
    if len(hull) == 1:
        return hull[0] == p
    if len(hull) == 2:
        a, b = hull
        return _cross(a, b, p) == 0 and min(a, b) <= p <= max(a, b)
    return all(_cross(hull[i], hull[(i + 1) % len(hull)], p) >= 0 for i in range(len(hull)))


def convexified_maximals_2d(utility, ground, budget) -> list[Vec]:
    """Budget points in the convex hull of every upper level set of the
    utility over the ground grid that they do not already reach."""
    values = {p: utility(p) for p in ground}
    hulls: dict[Fraction, list[Vec]] = {}
    keep = []
    for m in budget:
        ok = True
        for s in budget:
            level = values[s]
            if values[m] >= level:
                continue
            if level not in hulls:
                hulls[level] = hull_2d(p for p in ground if values[p] >= level)
            if not in_hull_2d(hulls[level], m):
                ok = False
                break
        if ok:
            keep.append(m)
    return keep
