"""Reconstruction of the named algebra catalog from its Hasse-diagram data.

Each bundled entry pins a handful of products; the rest follow by
deduction from the unit law, idempotence, commutativity, annihilation by
the lattice bottom (the product preserves all joins, the empty one
included), and monotone interpolation between equal products.  There is
no search: a cell the rules leave open means the diagram underdetermines
the algebra, and raises like any other diagram error.  The deduced table
is validated once, and the node decorations are checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (
    FinAlgebra,
    algebra_iso,
    plus_table,
    validate_dinfl,
    validate_dqra,
)
from .catalog_data import (
    CATALOG_ENTRIES,
    ONLY_NEG,
    REPRESENTABILITY,
    SECOND_NEG,
)
from .enumerate import census_key
from .errors import InternalCheckError, SignatureError, StructuralError
from .iso import isomorphisms
from .order import Poset, bits, mask_of


def _parse_entry(name, covers, labels):
    n = len(labels)
    poset = Poset.from_covers(n, covers)
    tables = poset.lattice
    if not poset.is_lattice:
        raise StructuralError(f"{name}: the diagram is not a lattice")
    names = {"T": tables.top}
    equations = []  # (xname, yname, node)
    for node, label in enumerate(labels):
        if not label:
            continue
        for token in label.split("="):
            if len(token) == 1:
                if token in names and names[token] != node:
                    raise StructuralError(f"{name}: symbol {token} named twice")
                names[token] = node
            elif len(token) == 2:
                x, y = token[0], (token[0] if token[1] == "2" else token[1])
                equations.append((x, y, node))
            else:
                raise StructuralError(f"{name}: bad token {token!r}")
    if "1" not in names:
        if n != 1:
            raise StructuralError(f"{name}: unit not named")
        names["1"] = 0
    names.setdefault("0", tables.bottom)
    return poset, names, equations


def _deduce_products(name, poset, names, equations, styles):
    """The product table the diagram rules force; an open cell is an error."""
    n = poset.n
    one, bottom = names["1"], poset.lattice.bottom
    commutative = all(s in "io" for s in styles)
    idempotent = [s in "iI" for s in styles]
    prod = [[-1] * n for _ in range(n)]

    def put(x, y, v):
        if prod[x][y] == -1:
            prod[x][y] = v
            return True
        if prod[x][y] != v:
            raise StructuralError(
                f"{name}: product conflict at ({x},{y}): {prod[x][y]} vs {v}"
            )
        return False

    for xn, yn, node in equations:
        if xn not in names or yn not in names:
            raise StructuralError(f"{name}: equation references unnamed {xn}{yn}")
        put(names[xn], names[yn], node)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            changed |= put(one, x, x)
            changed |= put(x, one, x)
            changed |= put(bottom, x, bottom)
            changed |= put(x, bottom, bottom)
            if idempotent[x]:
                changed |= put(x, x, x)
        if commutative:
            for x in range(n):
                for y in range(n):
                    if prod[x][y] != -1:
                        changed |= put(y, x, prod[x][y])
        # monotone interpolation between equal known products
        for x in range(n):
            for y in range(n):
                if prod[x][y] != -1:
                    continue
                lows = {
                    prod[u][v]
                    for u in bits(poset.down[x])
                    for v in bits(poset.down[y])
                    if prod[u][v] != -1
                }
                highs = {
                    prod[u][v]
                    for u in bits(poset.up[x])
                    for v in bits(poset.up[y])
                    if prod[u][v] != -1
                }
                pinch = lows & highs
                if len(pinch) > 1:
                    raise StructuralError(f"{name}: interpolation conflict at ({x},{y})")
                if pinch:
                    changed |= put(x, y, pinch.pop())
    for x in range(n):
        for y in range(n):
            if prod[x][y] == -1:
                raise StructuralError(f"{name}: the diagram leaves the product ({x},{y}) open")
    return prod


def _negations_from_zero(name, poset, prod, zero):
    """tilde/minus as the largest solutions of x.y <= zero."""
    n = poset.n
    tilde, minus = [], []
    for a in range(n):
        for out, row in ((tilde, [prod[a][x] for x in range(n)]),
                         (minus, [prod[x][a] for x in range(n)])):
            sat = mask_of(x for x in range(n) if (poset.up[row[x]] >> zero) & 1)
            best = None
            for x in bits(sat):
                if sat & ~poset.down[x] == 0:
                    best = x
                    break
            if best is None:
                raise StructuralError(f"{name}: no largest residual of 0 at node {a}")
            out.append(best)
    return tilde, minus


def _diagram_algebra(name, covers, labels, styles):
    """The DInFL-algebra a catalog entry draws, with its node names
    (symbol -> node)."""
    poset, names, equations = _parse_entry(name, covers, labels)
    prod = _deduce_products(name, poset, names, equations, styles)
    tilde, minus = _negations_from_zero(name, poset, prod, names["0"])
    alg = FinAlgebra(poset, prod, names["1"], tilde, minus, name=name)
    rep = validate_dinfl(alg)
    if not rep.ok:
        raise InternalCheckError(f"{name}: reconstruction failed validation: {rep.summary()}")
    # The node decorations double as a transcription check.
    n = poset.n
    for x in range(n):
        idem = prod[x][x] == x
        central = all(prod[x][y] == prod[y][x] for y in range(n))
        want = styles[x]
        got = {(True, True): "i", (True, False): "o", (False, True): "I", (False, False): "O"}[
            (central, idem)
        ]
        if want != got:
            raise InternalCheckError(f"{name}: node {x} drawn {want} but computed {got}")
    return alg, names


def algebra_automorphisms(alg: FinAlgebra) -> list[tuple[int, ...]]:
    """All signature automorphisms, in lexicographic order."""
    return isomorphisms(alg.structure, alg.structure)


def dqra_negations(alg: FinAlgebra) -> list[tuple[int, ...]]:
    """All De Morgan negations of a DInFL-algebra, up to automorphism.

    Candidates are the order reversing involutions (these satisfy the
    De Morgan meet law automatically); the product law cuts them down,
    and conjugate survivors are identified.
    """
    base = alg.without_neg() if alg.neg is not None else alg
    plus = plus_table(base)
    n = base.size
    valid = []
    for g in base.order_poset.order_reversing_involutions:
        garr = np.asarray(g)
        if np.array_equal(garr[base.product], plus[np.ix_(garr, garr)]):
            valid.append(tuple(g))
    autos = algebra_automorphisms(base)
    reps: list[tuple[int, ...]] = []
    for g in sorted(valid):
        conj = {
            tuple(sigma[g[inv[x]]] for x in range(n))
            for sigma in autos
            for inv in [tuple(sigma.index(i) for i in range(n))]
        }
        if not any(r in conj for r in reps):
            reps.append(g)
    for g in reps:
        if not validate_dqra(base.with_neg(list(g))).ok:
            raise InternalCheckError("negation candidate failed full validation")
    return reps


@dataclass
class CatalogVariant:
    neg_desc: str  # "~" when neg is tilde, otherwise e.g. "a=b"
    algebra: FinAlgebra
    status: str
    note: str

    @property
    def display_neg(self) -> str:
        if self.neg_desc == "~":
            return "neg = ~"
        x, y = self.neg_desc.split("=")
        return f"neg {x} = {y}"


@dataclass
class CatalogEntry:
    name: str
    size: int
    group: int  # involutive-lattice class
    index: int  # position inside the class
    neg_count: int
    base: FinAlgebra  # DInFL signature, no neg
    variants: list[CatalogVariant]
    element_classes: str  # one of i/o/I/O per element

    @property
    def display_name(self) -> str:
        tail = f",{self.neg_count}" if self.neg_count > 1 else ""
        return f"D^{self.size}_{{{self.group},{self.index}{tail}}}"


def _name_parts(name: str):
    bits_ = name[1:].split("_")
    vals = [int(v) for v in bits_]
    if len(vals) == 3:
        return vals[0], vals[1], vals[2], 1
    return vals[0], vals[1], vals[2], vals[3]


def _variant_desc(entry_name, alg, node_of, neg) -> str:
    if tuple(neg) == tuple(int(v) for v in alg.tilde):
        return "~"
    spec = SECOND_NEG.get(entry_name) or ONLY_NEG.get(entry_name)
    if spec is not None:
        x, y = spec
        if x in node_of and y in node_of and neg[node_of[x]] == node_of[y]:
            return f"{x}={y}"
    raise InternalCheckError(f"{entry_name}: cannot describe the extra negation")


@lru_cache(maxsize=None)
def build_catalog() -> tuple[CatalogEntry, ...]:
    """All named algebras up to size six, each with its De Morgan variants."""
    entries = []
    for name, covers, labels, styles in CATALOG_ENTRIES:
        base, node_of = _diagram_algebra(name, covers, labels, styles)
        negs = dqra_negations(base)
        n, m, i, k = _name_parts(name)
        if name in ONLY_NEG:
            expected = 1
        else:
            expected = k
        if len(negs) != expected:
            raise InternalCheckError(
                f"{name}: expected {expected} negations, found {len(negs)}"
            )
        variants = []
        for neg in negs:
            desc = _variant_desc(name, base, node_of, neg)
            status, note = REPRESENTABILITY[(name, desc)]
            variants.append(
                CatalogVariant(
                    neg_desc=desc,
                    algebra=base.with_neg(list(neg), name=f"{name}" + ("" if desc == "~" else f"[{desc}]")),
                    status=status,
                    note=note,
                )
            )
        variants.sort(key=lambda v: (v.neg_desc != "~", v.neg_desc))
        entries.append(
            CatalogEntry(
                name=name,
                size=n,
                group=m,
                index=i,
                neg_count=len(variants),
                base=base,
                variants=variants,
                element_classes=styles,
            )
        )
    return tuple(entries)


def catalog(max_size: int = 6) -> list[CatalogEntry]:
    if max_size > 6:
        raise StructuralError("the named catalog stops at cardinality six")
    return [e for e in build_catalog() if e.size <= max_size]


def catalog_lookup(name: str) -> CatalogEntry:
    for e in build_catalog():
        if e.name == name:
            return e
    raise KeyError(name)


@lru_cache(maxsize=None)
def _catalog_index() -> dict[int, dict]:
    """size -> census key -> (algebra, (entry,)) or (algebra, (entry, variant))."""
    index = {}
    for e in build_catalog():
        by_key = index.setdefault(e.size, {})
        for alg, value in [(e.base, (e,))] + [(v.algebra, (e, v)) for v in e.variants]:
            key = census_key(alg)
            if key in by_key:
                raise InternalCheckError(f"{alg.name} and {by_key[key][0].name} share a key")
            by_key[key] = (alg, value)
    return index


def _match(alg: FinAlgebra, what: str):
    """The catalog hit isomorphic to alg, then the least witness onto it."""
    by_key = _catalog_index().get(alg.size)
    hit = None if by_key is None else by_key.get(census_key(alg))
    witness = None if hit is None else algebra_iso(alg, hit[0])
    if witness is None:
        raise InternalCheckError(f"algebra matches 0 catalog {what} instead of one")
    return (*hit[1], witness)


def match_dinfl(alg: FinAlgebra):
    """The unique catalog entry isomorphic to a DInFL-algebra, with witness."""
    return _match(alg.without_neg() if alg.neg is not None else alg, "entries")


def match_dqra(alg: FinAlgebra):
    """The unique (entry, variant) pair isomorphic to a DqRA."""
    if alg.neg is None and alg.size in _catalog_index():
        raise SignatureError("cannot compare algebras with different signatures")
    return _match(alg, "variants")
