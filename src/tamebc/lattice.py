"""Integer lattices with an action of a finite abelian group.

A ``GLattice`` is a free Z-module of finite rank together with one
integer matrix per cyclic generator of the group; a ``LatticeMap`` is an
integer matrix intertwining two such actions.  An equivariant map
between lattices of equal rank is an isogeny of the corresponding tori
exactly when its determinant is nonzero, and the order of its cokernel
(the degree of the isogeny) equals the absolute determinant; the module
cross-checks that value against the product of the elementary divisors
of the matrix.

``jumps_non_invariance_demo`` packages the rank-4 example showing that
jump multisets are not isogeny invariants: the induced torus of a
biquadratic extension and a product of a split torus with three
norm-one quadratic tori are connected by an equivariant map of
determinant 16, yet their jump multisets differ.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _intmat
from .errors import NotEquivariant, SpecInvariantViolation
from .jumps import Gm, NormOneQuadratic, Product, Res, torus_jumps

__all__ = [
    "FiniteAbelianGroup",
    "GLattice",
    "LatticeMap",
    "validate",
    "is_isogeny",
    "jumps_non_invariance_demo",
    "klein_four_example_map",
]


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups Z/m_1 x ... x Z/m_r, each m_i >= 2."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(int(m) for m in self.factors))
        if not self.factors or any(m < 2 for m in self.factors):
            raise SpecInvariantViolation("cyclic factors must all be >= 2")


@dataclass(frozen=True, slots=True)
class GLattice:
    """Free Z-module of finite rank with commuting generator matrices,
    each stored once as a tuple of row tuples."""

    group: FiniteAbelianGroup
    rank: int
    generators: tuple

    def __post_init__(self):
        if self.rank < 1:
            raise SpecInvariantViolation("rank must be >= 1")
        gens = tuple(tuple(tuple(row) for row in g) for g in self.generators)
        if len(gens) != len(self.group.factors):
            raise SpecInvariantViolation(
                "need one generator matrix per cyclic factor"
            )
        for g in gens:
            if len(g) != self.rank or any(len(row) != self.rank for row in g):
                raise SpecInvariantViolation("generator matrix has wrong shape")
        object.__setattr__(self, "generators", gens)


def validate(lat: GLattice) -> bool:
    """True iff the generator matrices commute and each has an order
    dividing its cyclic factor.

    Invertibility needs no separate check: g^m = I gives
    det(g)^m = 1, so det(g) = +-1 and g is invertible over Z.
    """
    gens = lat.generators
    identity = _intmat.mat_identity(lat.rank)
    for m, g in zip(lat.group.factors, gens):
        power = identity
        for _ in range(m):
            power = _intmat.mat_mul(power, g)
        if power != identity:
            return False
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if _intmat.mat_mul(gens[i], gens[j]) != _intmat.mat_mul(gens[j], gens[i]):
                return False
    return True


@dataclass(frozen=True, slots=True)
class LatticeMap:
    """Integer matrix from a source lattice to a target lattice, stored
    once as a tuple of row tuples."""

    source: GLattice
    target: GLattice
    matrix: tuple

    def __post_init__(self):
        m = tuple(tuple(row) for row in self.matrix)
        if len(m) != self.target.rank or any(len(row) != self.source.rank for row in m):
            raise SpecInvariantViolation(
                "map matrix must be target_rank x source_rank"
            )
        if self.source.group != self.target.group:
            raise SpecInvariantViolation("source and target have different groups")
        object.__setattr__(self, "matrix", m)

    def is_equivariant(self) -> bool:
        m = self.matrix
        return all(
            _intmat.mat_mul(m, gs) == _intmat.mat_mul(gt, m)
            for gs, gt in zip(self.source.generators, self.target.generators)
        )


def is_isogeny(f: LatticeMap):
    """(nonzero-determinant?, cokernel order) for an equivariant map.

    The cokernel order is computed twice, as |det| and as the product of
    the integer elementary divisors, and the two must agree; a singular
    map reports (False, 0).
    """
    if f.source.rank != f.target.rank:
        raise SpecInvariantViolation("isogeny test needs equal ranks")
    if not f.is_equivariant():
        raise NotEquivariant("map does not commute with the group action")
    d = _intmat.det(f.matrix)
    if d == 0:
        return False, 0
    divisors = _intmat.smith_diagonal(f.matrix)
    order = 1
    for e in divisors:
        order *= e
    if len(divisors) < f.source.rank or order != abs(d):
        raise SpecInvariantViolation(
            f"self-check failed: |det| = {abs(d)} vs divisor product {order}"
        )
    return True, abs(d)


def klein_four_example_map() -> LatticeMap:
    """The rank-4 equivariant map of determinant 16 between the character
    lattices of the biquadratic induced torus and the isogenous product
    of Gm with three norm-one quadratic tori.

    Source: Z (trivial action) + three rank-one lattices where the two
    generators act by the three nontrivial sign patterns.  Target: the
    group ring of Z/2 x Z/2 with basis (e, s, t, st) permuted by left
    multiplication.
    """
    group = FiniteAbelianGroup((2, 2))
    sign_s = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    sign_t = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    source = GLattice(group, 4, (sign_s, sign_t))
    perm_s = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    perm_t = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    target = GLattice(group, 4, (perm_s, perm_t))
    # columns: images of the four source basis vectors in (e, s, t, st)
    matrix = [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
    ]
    return LatticeMap(source, target, matrix)


def jumps_non_invariance_demo():
    """(jumps of the biquadratic induced torus, jumps of the isogenous
    product, True iff the multisets differ while the connecting map is
    an isogeny)."""
    left = torus_jumps(Res(4))
    right = torus_jumps(
        Product((Gm(), NormOneQuadratic(), NormOneQuadratic(), NormOneQuadratic()))
    )
    ok, order = is_isogeny(klein_four_example_map())
    differ = (left != right) and ok and order > 0
    return left, right, differ
