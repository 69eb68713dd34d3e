"""Frame morphisms, algebra homomorphisms, and the contravariant duals.

A frame morphism is checked against the bounded-morphism style conditions
(order preservation, forward and back composition conditions, commuting
with the unary maps, identity preimage).  Its dual acts on upsets by
preimage.  An algebra homomorphism dualises to the map sending a
join-irreducible b to the meet of the preimage of its principal filter;
at finite scale complete preservation is ordinary preservation.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .algebra import FinAlgebra, ValidationReport, _witnesses, join_irreducibles
from .errors import (BudgetExhausted, InternalCheckError, PreconditionError, SignatureError,
                     StructuralError)
from .frame import Frame, complex_algebra, dual_frame
from .order import bits, mask_of, row_masks


@dataclass
class _CarrierMap:
    """A map between the carriers of two finite structures of one kind."""

    source: FinAlgebra | Frame
    target: FinAlgebra | Frame
    map: tuple[int, ...]

    def __post_init__(self):
        self.map = tuple(int(v) for v in self.map)
        if len(self.map) != self.source.size:
            raise StructuralError("map length differs from the source carrier")
        if any(not 0 <= v < self.target.size for v in self.map):
            raise StructuralError("map image out of range")

    def is_injective(self) -> bool:
        return len(set(self.map)) == self.source.size

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.target.size


@dataclass
class FrameMap(_CarrierMap):
    source: Frame
    target: Frame

    def is_order_embedding(self) -> bool:
        f = self.map
        return all(
            self.source.leq(x, y) == self.target.leq(f[x], f[y])
            for x in range(self.source.size)
            for y in range(self.source.size)
        )


@dataclass
class AlgHom(_CarrierMap):
    source: FinAlgebra
    target: FinAlgebra

    def is_complete(self) -> bool:
        """Preserves empty meets and joins as well, i.e. both bounds.

        Nonempty meets and joins reduce to the binary ones on a finite
        carrier, so this is the only extra content of completeness here.
        """
        return (
            self.map[self.source.bottom] == self.target.bottom
            and self.map[self.source.top] == self.target.top
        )


def validate_frame_morphism(fm: FrameMap) -> ValidationReport:
    """Check all frame-morphism conditions, collecting each violation."""
    rep = ValidationReport(subject="frame morphism")
    w1, w2, f = fm.source, fm.target, fm.map
    if (w1.neg is None) != (w2.neg is None):
        raise SignatureError("source and target have different signatures")
    n1, n2 = w1.size, w2.size
    for x in range(n1):
        for y in range(n1):
            if w1.leq(x, y) and not w2.leq(f[x], f[y]):
                rep.add("order_preserving", (x, y))
    for x in range(n1):
        for y in range(n1):
            cell = w1.comp[x][y]
            target_cell = w2.comp[f[x]][f[y]]
            for z in bits(cell):
                if not (target_cell >> f[z]) & 1:
                    rep.add("forward_composition", (x, y, z))
    for u in range(n2):
        for v in range(n2):
            cell2 = w2.comp[u][v]
            for z in range(n1):
                if not (cell2 >> f[z]) & 1:
                    continue
                witnessed = any(
                    w2.leq(u, f[x]) and w2.leq(v, f[y]) and w1.contains(x, y, z)
                    for x in range(n1)
                    for y in range(n1)
                )
                if not witnessed:
                    rep.add("back_composition", (u, v, z))
    for x in range(n1):
        if f[w1.tilde[x]] != w2.tilde[f[x]]:
            rep.add("tilde_commutes", (x,))
        if f[w1.minus[x]] != w2.minus[f[x]]:
            rep.add("minus_commutes", (x,))
    preimage = mask_of(x for x in range(n1) if (w2.identity >> f[x]) & 1)
    if preimage != w1.identity:
        rep.add("identity_preimage", (w1.identity, preimage))
    if w1.neg is not None:
        for x in range(n1):
            if f[w1.neg[x]] != w2.neg[f[x]]:
                rep.add("neg_commutes", (x,))
    return rep


def frame_morphism_dual(fm: FrameMap) -> AlgHom:
    """The preimage map on upsets, from the target's complex algebra to the
    source's."""
    w1, w2, f = fm.source, fm.target, fm.map
    a2 = complex_algebra(w2)
    a1 = complex_algebra(w1)
    index1 = {m: i for i, m in enumerate(w1.upsets)}
    mapping = []
    for u2 in w2.upsets:
        pre = mask_of(x for x in range(w1.size) if (u2 >> f[x]) & 1)
        if pre not in index1:
            raise InternalCheckError("preimage of an upset is not an upset")
        mapping.append(index1[pre])
    hom = AlgHom(source=a2, target=a1, map=tuple(mapping))
    rep = validate_homomorphism(hom)
    if not rep.ok:
        raise InternalCheckError(f"dual of a frame morphism failed validation: {rep.summary()}")
    return hom


def validate_homomorphism(h: AlgHom) -> ValidationReport:
    """Preservation of meet, join, product, unit and all negations.

    Finite carriers make complete preservation the same as plain
    preservation, which the report notes."""
    rep = ValidationReport(subject="homomorphism")
    rep.notes.append("finite carrier: complete preservation equals preservation")
    a, b, f = h.source, h.target, np.asarray(h.map)
    if (a.neg is None) != (b.neg is None):
        raise SignatureError("source and target have different signatures")
    if int(f[a.one]) != b.one:
        rep.add("unit_preserved", (a.one,))
    for law, table_a, table_b in (("meet_preserved", a.meet_table, b.meet_table),
                                  ("join_preserved", a.join_table, b.join_table),
                                  ("product_preserved", a.product, b.product)):
        for pair in _witnesses(f[table_a] != table_b[np.ix_(f, f)]):
            rep.add(law, pair)
    unaries = [("tilde", a.tilde, b.tilde), ("minus", a.minus, b.minus)]
    if a.neg is not None:
        unaries.append(("neg", a.neg, b.neg))
    for what, ua, ub in unaries:
        for point in _witnesses(f[ua] != ub[f]):
            rep.add(f"{what}_preserved", point)
    return rep


def principal_preimage_meet(h: AlgHom, target_elt: int) -> int:
    """meet of h^{-1}[up target_elt]; the empty meet is the source's top."""
    a, b, f = h.source, h.target, h.map
    pre = mask_of(x for x in range(a.size) if b.leq[target_elt, f[x]])
    return a.meet_mask(pre)


def hom_dual(h: AlgHom) -> FrameMap:
    """The dual frame morphism J(B) -> J(A), b -> meet of h^{-1}[up b].

    The meet of an empty preimage is the top of the source lattice, which
    exists because finite lattices are bounded.  Requires a complete
    homomorphism: without bound preservation the meet can fall outside the
    join-irreducibles and the dual is not defined.
    """
    if not h.is_complete():
        raise PreconditionError(
            "homomorphism does not preserve the lattice bounds; "
            "its dual on join-irreducibles is not defined"
        )
    a, b, f = h.source, h.target, h.map
    fa, fb = dual_frame(a), dual_frame(b)
    jirr_a, jirr_b = fa.carrier_elements, fb.carrier_elements
    pos_a = {v: i for i, v in enumerate(jirr_a)}
    mapping = []
    for jb in jirr_b:
        val = principal_preimage_meet(h, jb)
        if val not in pos_a:
            raise InternalCheckError(
                "meet of a principal-filter preimage is not join-irreducible"
            )
        mapping.append(pos_a[val])
    fm = FrameMap(source=fb, target=fa, map=tuple(mapping))
    rep = validate_frame_morphism(fm)
    if not rep.ok:
        raise InternalCheckError(f"dual of a homomorphism failed validation: {rep.summary()}")
    return fm


def _preserves(a: FinAlgebra, b: FinAlgebra, injective: bool = False):
    """A test of a map a -> b, given as a list of images, that answers
    ``validate_homomorphism(...).ok`` (and injectivity, if asked) without
    collecting witnesses.

    It stops at the first law the map breaks, cheapest first: injectivity,
    the unit, the unary maps over Python lists, then product, join and
    meet, each one gather of b's table at the images.
    """
    n, a_one, b_one = a.size, a.one, b.one
    unaries = [(a.tilde.tolist(), b.tilde.tolist()), (a.minus.tolist(), b.minus.tolist())]
    if a.neg is not None:
        unaries.append((a.neg.tolist(), b.neg.tolist()))
    tables = [(a.product, b.product), (a.join_table, b.join_table),
              (a.meet_table, b.meet_table)]

    def check(f: list[int]) -> bool:
        if injective and len(set(f)) < n:
            return False
        if f[a_one] != b_one:
            return False
        for ua, ub in unaries:
            for x in range(n):
                if f[ua[x]] != ub[f[x]]:
                    return False
        image = np.array(f)
        rows, cols = image[:, None], image[None, :]
        return all((image[table_a] == table_b[rows, cols]).all() for table_a, table_b in tables)

    return check


def _hom_search(a: FinAlgebra, b: FinAlgebra, budget: int, injective: bool = False):
    """Generate the homomorphisms a -> b, injective ones only if asked.

    Every element is the join of the bottom with the join-irreducibles
    below it, so the search assigns images to these generators, bottom
    first, and extends the assignment by joins.  The bottom needs its own
    image because homomorphisms in this signature do not have to preserve
    lattice bounds.  The allowed images of a generator form one bitmask:
    the up-sets of the images of the earlier generators below it, meet the
    down-sets of the images of those above it; an injective map also
    reflects the order, so the mask leaves out the up-sets (down-sets) of
    the images of the other earlier generators.  Its elements are tried in
    increasing order, depth first, by one loop over the masks of untried
    images, one per generator.  The allowed mask of the last generator is
    the set of leaves under its node, taken as one mask: one AND with the
    images v for which the unit's image is b's unit (the join of v with
    the image p of the unit's other generators, a row of b's join table
    read once per p as a mask; b's unit alone where the bottom is the
    only generator; all or none where the unit is not above the last
    generator) keeps the hits.  Only a hit is extended, by rows of b's join table
    kept as lists, and goes to the early-exit check of ``_preserves``;
    each map it accepts is validated in full by ``validate_homomorphism``
    before it is yielded, in increasing order of the last image.
    Raises ``BudgetExhausted`` once the search has visited more than
    ``budget`` nodes, one per partial assignment including the empty one
    and each leaf: the leaves of one mask count by its popcount, and where
    the budget ends among them, the maps of the leaves before that point
    are yielded first.
    """
    if (a.neg is None) != (b.neg is None):
        raise SignatureError("source and target have different signatures")
    gens = [a.bottom] + [j for j in join_irreducibles(a) if j != a.bottom]
    m, leq = len(gens), a.leq
    last = m - 1
    # the earlier generators below and above each generator, and the others
    lower = [[i for i in range(k) if leq[gens[i], j]] for k, j in enumerate(gens)]
    upper = [[i for i in range(k) if leq[j, gens[i]]] for k, j in enumerate(gens)]
    not_lower = [[i for i in range(k) if not leq[gens[i], j]] for k, j in enumerate(gens)]
    not_upper = [[i for i in range(k) if not leq[j, gens[i]]] for k, j in enumerate(gens)]
    joined = [[k for k in range(1, m) if leq[gens[k], x]] for x in range(a.size)]
    b_one = b.one
    # the unit's image is the join of the bottom's image with those of
    # unit_rest, and with the last generator's image if unit_last
    unit_last = last in joined[a.one]
    unit_rest = [i for i in joined[a.one] if i != last]
    down, up, carrier = b.order_poset.down, b.order_poset.up, b.order_poset.carrier
    join_rows = _Rows(b.join_table)
    to_unit = _UnitRows(b.join_table, b_one)
    preserves = _preserves(a, b, injective)

    def search():
        image = [0] * m
        left = [0] * m  # the images not yet tried at each generator
        nodes = k = 0
        while True:
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted(f"homomorphism search exceeded {budget} nodes")
            allowed = carrier
            for i in lower[k]:
                allowed &= up[image[i]]
            for i in upper[k]:
                allowed &= down[image[i]]
            if injective:
                for i in not_lower[k]:
                    allowed &= ~up[image[i]]
                for i in not_upper[k]:
                    allowed &= ~down[image[i]]
            if k < last:
                left[k] = allowed
            else:
                # the leaves, one node each in increasing order of image;
                # where the budget ends among them, those before that point
                leaves, spare = allowed, budget - nodes
                exhausted = leaves.bit_count() > spare
                if exhausted:
                    rest = leaves
                    for _ in range(spare):
                        rest &= rest - 1
                    leaves ^= rest
                nodes += leaves.bit_count()
                if last == 0:
                    hits = leaves & (1 << b_one)
                else:
                    acc = image[0]
                    for i in unit_rest:
                        acc = join_rows[acc][image[i]]
                    if unit_last:
                        hits = leaves & to_unit[acc]
                    else:
                        hits = leaves if acc == b_one else 0
                while hits:
                    low = hits & -hits
                    hits ^= low
                    image[last] = low.bit_length() - 1
                    f = []
                    for ks in joined:
                        acc = image[0]
                        for i in ks:
                            acc = join_rows[acc][image[i]]
                        f.append(acc)
                    if preserves(f):
                        hom = AlgHom(source=a, target=b, map=tuple(f))
                        if not validate_homomorphism(hom).ok:
                            raise InternalCheckError(
                                f"leaf check accepted a non-homomorphism {hom.map}")
                        yield hom
                if exhausted:
                    raise BudgetExhausted(f"homomorphism search exceeded {budget} nodes")
            # the next node: the least untried image at the deepest
            # generator that has one
            while k >= 0 and not left[k]:
                k -= 1
            if k < 0:
                return
            low = left[k] & -left[k]
            left[k] ^= low
            image[k] = low.bit_length() - 1
            k += 1

    return search()


class _Rows(dict):
    """Rows of a square table as lists, each converted on first use."""

    def __init__(self, table):
        super().__init__()
        self.table = table

    def __missing__(self, i):
        row = self[i] = self.table[i].tolist()
        return row


class _UnitRows(dict):
    """Row p of a join table as the mask of the v with join(p, v) equal to
    ``one``, each formed on first use."""

    def __init__(self, table, one):
        super().__init__()
        self.table, self.one = table, one

    def __missing__(self, p):
        row = self[p] = row_masks(self.table[p, None] == self.one)[0]
        return row


def enumerate_homs(a: FinAlgebra, b: FinAlgebra, budget: int = 10_000_000) -> list[AlgHom]:
    """All homomorphisms a -> b, in lexicographic order of the map tuple.

    ``budget`` counts search nodes, one per partial assignment of
    generator images including the empty one; past it the search raises
    ``BudgetExhausted``.
    """
    return sorted(_hom_search(a, b, budget), key=lambda h: h.map)
