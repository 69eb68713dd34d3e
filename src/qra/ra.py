"""The 37 nonsymmetric 4-atom relation algebras and their qRA subreducts.

Atoms are 1 (the identity), a (symmetric), and the converse pair r, s.
Lifting an atom table to the 16 element Boolean algebra gives a relation
algebra; with complement as De Morgan negation and complement-of-converse
as both linear negations it is a cyclic DqRA.  The interesting artifacts
are the largest subsets closed under join, product, 1 and tilde that are
NOT closed under complement: those are quasi relation algebras in their
own right but not relation algebras.  Two closed-form criteria on the
atom table sort the 37 into a twelve-element-subreduct family, an
eight-element-subreduct family, and a remainder with no proper subreduct
at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import FinAlgebra, ValidationReport, algebra_iso, validate_dqra
from .catalog import dqra_negations
from .errors import InternalCheckError, PreconditionError, StructuralError
from .frame import Frame, dual_frame, upset_algebra
from .iso import set_image
from .order import Poset, bits

ATOMS = ("1", "a", "r", "s")
_ATOM_BIT = {name: 1 << i for i, name in enumerate(ATOMS)}

# rows a, r, s by columns a, r, s; strings list the atoms of each entry
_TABLE_DATA = {
    1: (("1", "r", "s"), ("r", "r", "1ars"), ("s", "1ars", "s")),
    2: (("1a", "r", "s"), ("r", "r", "1ars"), ("s", "1ars", "s")),
    3: (("1", "r", "s"), ("r", "s", "1a"), ("s", "1a", "r")),
    4: (("1a", "r", "s"), ("r", "s", "1a"), ("s", "1a", "r")),
    5: (("1", "r", "s"), ("r", "rs", "1ars"), ("s", "1ars", "rs")),
    6: (("1a", "r", "s"), ("r", "rs", "1ars"), ("s", "1ars", "rs")),
    7: (("1rs", "a", "a"), ("a", "r", "1rs"), ("a", "1rs", "s")),
    8: (("1ars", "a", "a"), ("a", "r", "1rs"), ("a", "1rs", "s")),
    9: (("1rs", "a", "a"), ("a", "s", "1"), ("a", "1", "r")),
    10: (("1ars", "a", "a"), ("a", "s", "1"), ("a", "1", "r")),
    11: (("1rs", "a", "a"), ("a", "rs", "1rs"), ("a", "1rs", "rs")),
    12: (("1ars", "a", "a"), ("a", "rs", "1rs"), ("a", "1rs", "rs")),
    13: (("1ars", "ar", "a"), ("a", "r", "1ars"), ("as", "1rs", "s")),
    14: (("1rs", "ar", "as"), ("ar", "r", "1ars"), ("as", "1ars", "s")),
    15: (("1ars", "ar", "as"), ("ar", "r", "1ars"), ("as", "1ars", "s")),
    16: (("1rs", "ar", "as"), ("ar", "rs", "1ars"), ("as", "1ars", "rs")),
    17: (("1ars", "ar", "as"), ("ar", "rs", "1ars"), ("as", "1ars", "rs")),
    18: (("1", "s", "r"), ("s", "a", "1"), ("r", "1", "a")),
    19: (("1", "s", "r"), ("s", "ars", "1rs"), ("r", "1rs", "ars")),
    20: (("1a", "rs", "rs"), ("rs", "a", "1a"), ("rs", "1a", "a")),
    21: (("1a", "rs", "rs"), ("rs", "ar", "1ars"), ("rs", "1ars", "as")),
    22: (("1a", "rs", "rs"), ("rs", "ars", "1ars"), ("rs", "1ars", "ars")),
    23: (("1rs", "as", "ar"), ("as", "ar", "1rs"), ("ar", "1rs", "as")),
    24: (("1ars", "as", "ar"), ("as", "ar", "1rs"), ("ar", "1rs", "as")),
    25: (("1rs", "as", "ar"), ("as", "ars", "1rs"), ("ar", "1rs", "ars")),
    26: (("1ars", "as", "ar"), ("as", "ars", "1rs"), ("ar", "1rs", "ars")),
    27: (("1rs", "ars", "ar"), ("as", "ar", "1ars"), ("ars", "1rs", "as")),
    28: (("1ars", "ars", "ar"), ("as", "ar", "1ars"), ("ars", "1rs", "as")),
    29: (("1rs", "ars", "ar"), ("as", "ars", "1ars"), ("ars", "1rs", "ars")),
    30: (("1ars", "ars", "ar"), ("as", "ars", "1ars"), ("ars", "1rs", "ars")),
    31: (("1ars", "ars", "ars"), ("ars", "a", "1a"), ("ars", "1a", "a")),
    32: (("1rs", "ars", "ars"), ("ars", "ar", "1ars"), ("ars", "1ars", "as")),
    33: (("1ars", "ars", "ars"), ("ars", "ar", "1ars"), ("ars", "1ars", "as")),
    34: (("1rs", "ars", "ars"), ("ars", "as", "1a"), ("ars", "1a", "ar")),
    35: (("1ars", "ars", "ars"), ("ars", "as", "1a"), ("ars", "1a", "ar")),
    36: (("1rs", "ars", "ars"), ("ars", "ars", "1ars"), ("ars", "1ars", "ars")),
    37: (("1ars", "ars", "ars"), ("ars", "ars", "1ars"), ("ars", "1ars", "ars")),
}

#: indices whose relation algebra is known representable
REPRESENTABLE_RA = frozenset(
    range(1, 38)
) - frozenset({14, 16, 21, 24, 25, 26, 27, 28, 29, 32, 34})

#: expected family split (cross-checked against the computed criteria)
FAMILY_A_EXPECTED = frozenset({1, 2, 5, 6, 7, 8, 11, 12, 14, 15, 16, 17, 20, 21, 22, 31, 32, 33, 36, 37})
FAMILY_B_EXPECTED = frozenset({13, 19, 23, 24, 25, 26, 27, 28, 29, 30})
FAMILY_NONE_EXPECTED = frozenset({3, 4, 9, 10, 18, 34, 35})


def subreduct_annotation(index: int) -> str:
    """Representability note for the maximal proper subreduct, as data."""
    if index in FAMILY_NONE_EXPECTED:
        return "no proper qRA subreduct"
    if index == 14:
        return (
            "open; checked not representable as a weakening relation algebra"
        )
    if index in REPRESENTABLE_RA:
        return "representable (inherited from the relation algebra)"
    return "open"


@dataclass(frozen=True)
class AtomStructure4:
    """Composition table on the four atoms; identity row and column are
    forced to be singletons."""

    index: int
    comp: tuple[tuple[int, ...], ...]  # 4x4 atom-set masks

    @property
    def name(self) -> str:
        return f"RA{self.index}"

    def converse_atom(self, i: int) -> int:
        return {0: 0, 1: 1, 2: 3, 3: 2}[i]


def _atom_mask(s: str) -> int:
    return sum(_ATOM_BIT[ch] for ch in s)


@lru_cache(maxsize=None)
def builtin_atom_structures() -> tuple[AtomStructure4, ...]:
    out = []
    for index in sorted(_TABLE_DATA):
        rows = _TABLE_DATA[index]
        comp = [[0] * 4 for _ in range(4)]
        for i in range(4):
            comp[0][i] = 1 << i
            comp[i][0] = 1 << i
        for ri, row in enumerate(rows):
            for ci, cell in enumerate(row):
                comp[ri + 1][ci + 1] = _atom_mask(cell)
        out.append(AtomStructure4(index=index, comp=tuple(tuple(r) for r in comp)))
    return tuple(out)


def atom_structure(index: int) -> AtomStructure4:
    for s in builtin_atom_structures():
        if s.index == index:
            return s
    raise KeyError(f"no atom structure with index {index}")


def _atom_algebra(comp, converse, name) -> FinAlgebra:
    """The complex algebra of the antichain frame on the atoms, atom 0 the
    identity: composition is the table, tilde = minus = converse and neg
    is the identity map.  Elements are the atom sets in numeric order;
    neg is complement, tilde and minus are complement-of-converse."""
    atoms = len(comp)
    frame = Frame(Poset.antichain(atoms), 1, comp, converse, converse,
                  neg=range(atoms))
    return upset_algebra(frame, range(2 ** atoms), name)


def ra_from_atoms(struct: AtomStructure4, check: bool = True) -> FinAlgebra:
    """Lift the atom table to the 16-element algebra (see ``_atom_algebra``)."""
    converse = [struct.converse_atom(i) for i in range(4)]
    alg = _atom_algebra(struct.comp, converse, struct.name)
    if check:
        rep = validate_dqra(alg)
        if not rep.ok:
            raise StructuralError(f"{struct.name} fails algebra laws: {rep.summary()}")
        ra_rep = relation_algebra_checks(
            alg, lambda m: set_image(m, converse))
        if not ra_rep.ok:
            raise StructuralError(f"{struct.name} fails relation algebra laws: {ra_rep.summary()}")
    return alg


def relation_algebra_checks(alg: FinAlgebra, conv_mask) -> ValidationReport:
    """Converse involution, antidistribution over products, identity law."""
    rep = ValidationReport(subject=alg.name or "relation algebra")
    n = alg.size
    for u in range(n):
        if conv_mask(conv_mask(u)) != u:
            rep.add("converse_involution", (u,))
        if int(alg.product[alg.one, u]) != u or int(alg.product[u, alg.one]) != u:
            rep.add("identity_law", (u,))
    for u in range(n):
        for v in range(n):
            if conv_mask(int(alg.product[u, v])) != int(
                alg.product[conv_mask(v), conv_mask(u)]
            ):
                rep.add("converse_antidistribution", (u, v))
    return rep


def closed_subsets(alg: FinAlgebra) -> list[int]:
    """All subsets of the carrier containing 1 and closed under join,
    product and tilde, as element-index bitmasks.

    Each closure grows a set that is already closed, so only the elements
    new in a round need combining: with themselves and every member, in
    both orders, and under tilde.
    """
    n = alg.size
    # the tables as lists, read once; pair[x][y] has the bits of x v y, x.y
    # and y.x
    tilde = [1 << t for t in alg.tilde.tolist()]
    join, product = alg.join_table.tolist(), alg.product.tolist()
    pair = [[(1 << join[x][y]) | (1 << product[x][y]) | (1 << product[y][x])
             for y in range(n)] for x in range(n)]

    def grow(closed, extra):
        """The closure of ``closed | extra``, ``closed`` being closed."""
        mask, new = closed, extra & ~closed
        while new:
            mask |= new
            members = list(bits(mask))
            out = 0
            for x in bits(new):
                out |= tilde[x]
                row = pair[x]
                for y in members:
                    out |= row[y]
            new = out & ~mask
        return mask

    seed = grow(0, 1 << alg.one)
    found = {seed}
    frontier = [seed]
    while frontier:
        current = frontier.pop()
        for x in range(n):
            if (current >> x) & 1:
                continue
            bigger = grow(current, 1 << x)
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found)


def _complement_closed(alg: FinAlgebra, mask: int) -> bool:
    return all((mask >> int(alg.neg[x])) & 1 for x in bits(mask))


def subalgebra_on(alg: FinAlgebra, mask: int, name=None, with_neg=False) -> FinAlgebra:
    elems = list(bits(mask))
    pos = {e: i for i, e in enumerate(elems)}
    k = len(elems)
    leq = np.array([[bool(alg.leq[x, y]) for y in elems] for x in elems])
    product = np.array([[pos[int(alg.product[x, y])] for y in elems] for x in elems])
    tilde = [pos[int(alg.tilde[x])] for x in elems]
    minus = [pos[int(alg.minus[x])] for x in elems]
    neg = [pos[int(alg.neg[x])] for x in elems] if with_neg else None
    return FinAlgebra(leq, product, pos[alg.one], tilde, minus, neg=neg, name=name)


@dataclass
class SubreductResult:
    index: int
    algebra: FinAlgebra  # DqRA signature, with the chosen neg
    negations: list[tuple[int, ...]]  # all admissible negs, up to automorphism
    frame_poset: str  # "1+1+2" or "1+3"
    size: int
    commutative: bool
    annotation: str


_TAG_POSETS = {
    "1+1+2": Poset((1, 2, 4 | 8, 8)),
    "1+3": Poset((1, 2 | 4 | 8, 4 | 8, 8)),
}


def _frame_poset_tag(alg: FinAlgebra) -> str:
    frame = dual_frame(alg)
    for tag, poset in _TAG_POSETS.items():
        if frame.poset.canonical_key == poset.canonical_key:
            return tag
    return f"poset{frame.poset.n}"


def max_proper_qra_subreduct(struct: AtomStructure4):
    """The largest join/product/1/tilde-closed subset that is not
    complement closed, as a DqRA, or None."""
    ra = ra_from_atoms(struct, check=False)
    proper = [m for m in closed_subsets(ra) if not _complement_closed(ra, m)]
    if not proper:
        return None
    maximal = [m for m in proper if not any(m != o and m & ~o == 0 for o in proper)]
    candidates = [
        subalgebra_on(ra, m, name=f"{struct.name}-subreduct") for m in sorted(maximal)
    ]
    # mirror images under the r/s swap may both appear; they must agree
    # up to isomorphism and the first (smallest carrier mask) is kept
    for other in candidates[1:]:
        if algebra_iso(candidates[0], other) is None:
            raise InternalCheckError(
                f"{struct.name}: non-isomorphic maximal proper subreducts"
            )
    base = candidates[0]
    negs = dqra_negations(base)
    if not negs:
        return None
    commutative = bool(np.array_equal(base.product, base.product.T))
    chosen = None
    if commutative:
        for g in negs:
            if tuple(g) == tuple(int(v) for v in base.tilde):
                chosen = g
                break
    if chosen is None:
        chosen = negs[0]
    algebra = base.with_neg(list(chosen), name=base.name)
    rep = validate_dqra(algebra)
    if not rep.ok:
        raise InternalCheckError(f"{struct.name}: subreduct failed validation")
    return SubreductResult(
        index=struct.index,
        algebra=algebra,
        negations=negs,
        frame_poset=_frame_poset_tag(algebra),
        size=algebra.size,
        commutative=commutative,
        annotation=subreduct_annotation(struct.index),
    )


def family_criteria(struct: AtomStructure4) -> str:
    """Classify by the closed-form atom-table conditions.

    Family A: s below x.y forces r below x.y for x, y among a, r, r+s;
    the subreduct keeps the pairs where s entails r (12 elements, frame
    poset 1+1+2).  Family B: s below x.y forces both a and r below, and
    a below forces r below, for x, y among r, a+r, a+r+s (8 elements,
    frame poset 1+3).  Everything else has no proper subreduct.  The
    product of two atom sets is read off the atom table, as the union of
    the products of their atoms.
    """
    one, a, r, s = (_ATOM_BIT[t] for t in ATOMS)

    def holds(pairs, conditions):
        for x in pairs:
            for y in pairs:
                p = 0
                for i in bits(x):
                    for j in bits(y):
                        p |= struct.comp[i][j]
                for low, forced in conditions:
                    if low & ~p == 0 and forced & ~p != 0:
                        return False
        return True

    if holds((a, r, r | s), [(s, r)]):
        return "A12"
    if holds((r, a | r, a | r | s), [(s, a | r), (a, r)]):
        return "B8"
    return "none"


def symmetric_subreduct_check(alg: FinAlgebra, conv_mask) -> bool:
    """For a symmetric relation algebra every closed subset is complement
    closed, hence a relation algebra again."""
    for u in range(alg.size):
        if conv_mask(u) != u:
            raise PreconditionError("algebra is not symmetric")
    return all(_complement_closed(alg, m) for m in closed_subsets(alg))


def small_symmetric_ra(diversity_rule: str) -> tuple[FinAlgebra, callable]:
    """Tiny symmetric relation algebras built from one diversity atom d:
    'group' has d.d = 1, 'dense' has d.d = 1+d; 'trivial' has no d."""
    comp = {
        "trivial": ((0b1,),),
        "group": ((0b01, 0b10), (0b10, 0b01)),
        "dense": ((0b01, 0b10), (0b10, 0b11)),
    }[diversity_rule]
    name = "sym2" if diversity_rule == "trivial" else f"sym4-{diversity_rule}"
    alg = _atom_algebra(comp, range(len(comp)), name)
    rep = validate_dqra(alg)
    if not rep.ok:
        raise StructuralError(f"symmetric algebra invalid: {rep.summary()}")
    return alg, (lambda u: u)
