"""Descent of abelian varieties up to isogeny, modeled by exact block matrices.

A variety over the extension together with isomorphisms-up-to-isogeny from
its Galois conjugates is modeled by one invertible rational n x n matrix per
group element (the Hom spaces between conjugate factors are n^2-dimensional
with a fixed basis, and the Galois action on rational entries is trivial, so
conjugating a map only relabels its source and target slots).  The
compatibility identity asks that the matrices compose on the nose:
mu(s) * mu(t) = mu(st).

Restriction of scalars turns each group element into a block operator on the
product of conjugate factors, sending slot (t*g) to slot t by mu(g); the
compatibility identity makes these operators a group law on the nose.  The
averaged sum of all operators is an idempotent of rank n whose column space
projects isomorphically onto every single factor: the diagonal image that
realizes the descended variety.

Every property of that idempotent follows from the compatibility identity
alone (A. Weil, "The field of definition of a variety", 1956), so nothing is
recomputed by block algebra once the identity holds.  Writing the group
additively, eta = sum of all [g] has the block mu(s - t) at (t, s):
- [g] eta = eta = eta [g], since mu(g) mu(s - t - g) = mu(s - t) =
  mu(s - g - t) mu(g), and (eta/|G|)^2 = eta/|G|, since each of the |G|
  terms of sum_u mu(u - t) mu(s - u) equals mu(s - t);
- eta(t, s) = mu(-t) mu(s), so eta = U V with U the column of blocks mu(-t)
  and V the row of blocks mu(s).  Both contain the identity block (at 0),
  so rank eta = n, and the row slice of every slot, mu(-t) V, has rank n.
The identity itself is checked on generators: mu(s + e_i) = mu(s) mu(e_i)
for every s and every cyclic generator e_i, with mu(0) = I, gives
mu(s + t) = mu(s) mu(t) by induction on t as a word in the generators.

Every check runs on integers.  Each mu(g) is held as M_g / D_g, integer rows
over a common denominator (``linalg.ScaledMatrix``; the least one when read
from JSON), so mu(g) is
invertible iff det M_g != 0 (a fraction-free Bareiss elimination),
mu(0) = I iff M_0 = D_0 I, and mu(s) mu(t) = mu(st) iff
M_s M_t D_st = M_st D_s D_t, all in plain ints.  The matrices as Fractions
are built only for the block maps and for callers that read ``mu``.

The equivariance computation compares, slot by slot, the two ways around the
square formed by the comparison map from the plain product (the map sending
the s-th copy to the s^{-1}-conjugate factor via the conjugated isogeny) and
the two module structures.  Both ways around carry one common nonzero
factor, a block of mu or a cocycle coefficient, so the comparison reduces
to the slot scales of the comparison map (``iota_equivariance_violation``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Union

from . import linalg
from .errors import CompatibilityRequired
from .groups import Element, FiniteAbelianGroup
from .pipeline import QCurveDatum

_UNSCANNED = object()


@dataclass(frozen=True)
class FactorProduct:
    """Ordered product of conjugate factors, one per group element."""

    labels: tuple[Element, ...]
    block_rank: int

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("factor labels must be distinct")
        if self.block_rank < 1:
            raise ValueError("block rank must be >= 1")

    @classmethod
    def of_group(cls, group: FiniteAbelianGroup, block_rank: int) -> "FactorProduct":
        return cls(tuple(group.elements()), block_rank)


class BlockMap:
    """Map between factor products given by rational blocks (missing = zero)."""

    def __init__(
        self,
        source: FactorProduct,
        target: FactorProduct,
        blocks: Mapping[tuple[Element, Element], linalg.Matrix],
    ):
        if source.block_rank != target.block_rank:
            raise ValueError("source and target block ranks differ")
        n = source.block_rank
        table = {}
        for (t_label, s_label), block in blocks.items():
            if t_label not in target.labels or s_label not in source.labels:
                raise ValueError(f"block at ({t_label}, {s_label}) is off the products")
            block = linalg.matrix(block)
            if len(block) != n or any(len(row) != n for row in block):
                raise ValueError(f"block at ({t_label}, {s_label}) is not {n} x {n}")
            if any(any(x for x in row) for row in block):
                table[(t_label, s_label)] = block
        self.source = source
        self.target = target
        self.blocks = table

    @classmethod
    def _trusted(
        cls,
        source: FactorProduct,
        target: FactorProduct,
        blocks: dict[tuple[Element, Element], linalg.Matrix],
    ) -> "BlockMap":
        """A map from blocks that are already nonzero n x n matrices of
        Fractions on the products' labels (validated descent matrices)."""
        self = cls.__new__(cls)
        self.source = source
        self.target = target
        self.blocks = blocks
        return self

    def block(self, t_label: Element, s_label: Element) -> linalg.Matrix:
        zero = linalg.zeros(self.source.block_rank, self.source.block_rank)
        return self.blocks.get((t_label, s_label), zero)

    def compose(self, other: "BlockMap") -> "BlockMap":
        """self after other."""
        if other.target != self.source:
            raise ValueError("block maps are not composable")
        acc: dict[tuple[Element, Element], linalg.Matrix] = {}
        for (t_label, mid1), left in self.blocks.items():
            for (mid2, s_label), right in other.blocks.items():
                if mid1 != mid2:
                    continue
                product = linalg.mat_mul(left, right)
                key = (t_label, s_label)
                acc[key] = linalg.mat_add(acc[key], product) if key in acc else product
        return BlockMap(other.source, self.target, acc)

    def __eq__(self, other):
        if not isinstance(other, BlockMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.blocks == other.blocks
        )

    def __repr__(self):
        return f"BlockMap({len(self.blocks)} blocks on {len(self.source.labels)} slots)"


class DescentDatum:
    """Group, block rank, and one invertible matrix per element (mu(1) = id).

    Each matrix is kept as a ``linalg.ScaledMatrix`` (integer rows over one
    common denominator, not necessarily the least), taken as it is or built
    from any rows that ``linalg.matrix`` reads.  Invertibility, mu(1) = id
    (M = D I) and the compatibility identity are all decided on those ints; ``mu``, the matrices as Fractions,
    is built on first read.
    """

    def __init__(
        self,
        group: FiniteAbelianGroup,
        block_rank: int,
        mu: Mapping[Element, Union[linalg.Matrix, linalg.ScaledMatrix]],
    ):
        self.group = group
        self.block_rank = n = int(block_rank)
        matrices = []
        for g in group.elements():
            if g not in mu:
                raise ValueError(f"no isogeny matrix assigned at {g}")
            m = mu[g]
            if type(m) is not linalg.ScaledMatrix:
                m = linalg.scaled(linalg.matrix(m))
            if len(m.rows) != n or any(len(row) != n for row in m.rows):
                raise ValueError(f"matrix at {g} is not {n} x {n}")
            if not m.rows or not linalg.determinant(m.rows):
                raise ValueError(f"matrix at {g} is not invertible")
            matrices.append(m)
        m = matrices[0]
        if any(x != m.den * (i == j) for i, row in enumerate(m.rows) for j, x in enumerate(row)):
            raise ValueError("the identity element must carry the identity matrix")
        self._matrices = matrices
        self._violation = _UNSCANNED

    @cached_property
    def mu(self) -> dict[Element, linalg.Matrix]:
        """The matrices as Fractions, keyed by group element."""
        return {g: m.fractions() for g, m in zip(self.group.elements(), self._matrices)}

    def _scan(self) -> Optional[tuple[Element, Element]]:
        # mu(s + e_i) = mu(s) mu(e_i) for every s and generator e_i, with
        # mu(0) = I, implies the identity on every pair (module docstring);
        # only a failure pays for the pair scan that names the first pair
        group, mats = self.group, self._matrices
        elements = group.elements()
        add = group.addition_table()
        generators = [elements.index(group.generator(i)) for i in range(len(group.cyclic_orders))]
        if all(
            linalg.composes(mats[s], mats[e], mats[add[s][e]])
            for e in generators
            for s in range(len(elements))
        ):
            return None
        return next(
            (
                (elements[s], elements[t])
                for s, row in enumerate(add)
                for t, st in enumerate(row)
                if not linalg.composes(mats[s], mats[t], mats[st])
            ),
            None,
        )

    def product(self) -> FactorProduct:
        return FactorProduct.of_group(self.group, self.block_rank)


def compatibility_violation(datum: DescentDatum) -> Optional[tuple[Element, Element]]:
    """First pair with mu(s) mu(t) != mu(st), or None when compatible.

    The matrices are fixed on construction, so the check runs on the first
    call for a datum only.  It costs O(|G| k n^3) on the k cyclic generators;
    the O(|G|^2 n^3) lexicographic pair scan runs only when it fails.
    """
    if datum._violation is _UNSCANNED:
        datum._violation = datum._scan()
    return datum._violation


def build_restriction(datum: DescentDatum) -> dict[Element, BlockMap]:
    """The operators [g] on the product of conjugates, one per group element.

    [g] sends slot t*g to slot t by mu(g).  The family is a homomorphic image
    of the group exactly when the datum is compatible: [s][t] and [st] both
    have their blocks at (x, x*s*t), equal to mu(s) mu(t) and mu(st).
    """
    _require_compatible(datum)
    product = datum.product()
    add = datum.group.add
    return {
        g: BlockMap._trusted(
            product, product, {(t, add(t, g)): datum.mu[g] for t in product.labels}
        )
        for g in datum.group.elements()
    }


def _require_compatible(datum: DescentDatum) -> None:
    violation = compatibility_violation(datum)
    if violation is not None:
        raise CompatibilityRequired(f"compatibility fails at {violation}")


@dataclass(frozen=True)
class DescentReport:
    eta: BlockMap
    idempotent_ok: bool
    rank: int
    fixed_by_all: bool
    diagonal_image_ok: bool

    @property
    def ok(self) -> bool:
        return self.idempotent_ok and self.fixed_by_all and self.diagonal_image_ok


def eta_descent(datum: DescentDatum) -> DescentReport:
    """The sum eta of the restriction operators and its descended image.

    eta has the block mu(s - t) at (t, s): operator [g] puts mu(g) at
    (t, t + g), and distinct operators have disjoint supports.  On a
    compatible datum every flag holds and the rank is the block rank, by the
    compatibility identity mu(s) mu(t) = mu(s + t) alone:
    - [g] eta = eta = eta [g], and (eta/|G|)^2 = eta/|G|;
    - eta = U V, where U has blocks mu(-t) and V has blocks mu(s), each with
      an identity block (at 0).  So rank eta = n, and every slot's row slice
      mu(-t) V has rank n: the column space projects isomorphically onto
      each factor.
    So once ``compatibility_violation`` returns None, nothing is recomputed.
    """
    _require_compatible(datum)
    product = datum.product()
    add = datum.group.add
    blocks = {
        (t, add(t, g)): block for g, block in datum.mu.items() for t in product.labels
    }
    return DescentReport(
        eta=BlockMap._trusted(product, product, blocks),
        idempotent_ok=True,
        rank=datum.block_rank,
        fixed_by_all=True,
        diagonal_image_ok=True,
    )


# ---------------------------------------------------------------------------
# Equivariance of the comparison map
# ---------------------------------------------------------------------------

def iota_equivariance_violation(
    datum: Union[QCurveDatum, DescentDatum],
    iota_scale: Optional[Mapping[Element, Fraction]] = None,
) -> Optional[tuple[Element, Element]]:
    """First (g, slot) where the comparison map fails to intertwine the two
    actions, or None when it is equivariant.

    iota_scale optionally rescales the comparison map on individual slots
    (used to demonstrate that the identity is sharp); a uniform rescaling
    keeps equivariance, any single-slot change breaks it.

    At (g, s), iota after the permutation action is scale[g + s] F, and the
    [g] operator after iota is scale[s] F, for one nonzero F: the block
    mu(g + s) = mu(g) mu(s) of a compatible descent datum, or the c(g, s)
    the twisted composition rule contributes to both sides for a Q-curve
    datum.  So the witness is the first (g, s), in lexicographic order, with
    scale[g + s] != scale[s]; there is none iff the scale is uniform.
    """
    group = datum.group
    scale = {s: Fraction(1) for s in group.elements()}
    if iota_scale:
        for s, q in iota_scale.items():
            scale[group.check_element(s)] = Fraction(q)
    if isinstance(datum, DescentDatum):
        _require_compatible(datum)
    elif not datum.cocycle.is_rational_valued:
        raise ValueError("equivariance is defined for rational-valued cocycles only")
    if len(set(scale.values())) == 1:
        return None
    for g in group.elements():
        for s in group.elements():
            if scale[group.add(g, s)] != scale[s]:
                return (g, s)
    return None
