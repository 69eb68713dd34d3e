"""Generalised prime filters and the doubly-pointed frame of an algebra.

The points of the dual space of an algebra without lattice bounds in its
signature are the generalised prime filters: the prime filters plus the
empty set and the whole carrier.  On a finite carrier every subset is
clopen, so the topological side of the duality is discharged and recorded
as a note; what remains is a doubly-pointed frame whose proper non-empty
upsets recover the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .algebra import FinAlgebra, ValidationReport, join_irreducibles
from .errors import InternalCheckError, PreconditionError, StructuralError
from .frame import Frame, upset_algebra, validate_frame
from .iso import check_witness
from .order import Poset, bits, mask_of, popcount


class _Tables(NamedTuple):
    """An algebra's tables as Python lists, made once per construction so
    the filter loops never read a numpy scalar."""

    full: int
    up: tuple[int, ...]
    meet: list[list[int]]
    join: list[list[int]]
    product: list[list[int]]
    unaries: tuple[list[int], ...]  # tilde, minus and, when present, neg


def _tables(alg: FinAlgebra) -> _Tables:
    unaries = (alg.tilde, alg.minus) + (() if alg.neg is None else (alg.neg,))
    return _Tables((1 << alg.size) - 1, alg.order_poset.up, alg.meet_table.tolist(),
                   alg.join_table.tolist(), alg.product.tolist(),
                   tuple(op.tolist() for op in unaries))


def is_gen_prime_filter(alg: FinAlgebra, fmask: int) -> bool:
    """Empty, total, or a proper nonempty prime filter of the lattice."""
    return _is_gen_prime_filter(_tables(alg), fmask)


def _is_gen_prime_filter(tables: _Tables, fmask: int) -> bool:
    if fmask in (0, tables.full):
        return True
    members = list(bits(fmask))
    for a in members:
        if tables.up[a] & ~fmask:
            return False
    for a in members:
        row = tables.meet[a]
        for b in members:
            if not (fmask >> row[b]) & 1:
                return False
    outside = list(bits(tables.full & ~fmask))
    for a in outside:
        row = tables.join[a]
        for b in outside:
            if (fmask >> row[b]) & 1:
                return False
    return True


def gen_prime_filters(alg: FinAlgebra) -> list[int]:
    """All generalised prime filters as element bitmasks, sorted by
    (size, mask).

    On a finite distributive lattice these are the empty set, the whole
    carrier, and the principal filters at join-irreducible elements.
    """
    tables = _tables(alg)
    filters = {0, tables.full}
    for j in join_irreducibles(alg):
        filters.add(tables.up[j])
    out = sorted(filters, key=lambda m: (popcount(m), m))
    for f in out:
        if not _is_gen_prime_filter(tables, f):
            raise InternalCheckError(f"candidate {f:b} is not a generalised prime filter")
    return out


def filter_unaries(alg: FinAlgebra, fmask: int):
    """(F^~, F^-, F^neg); each is again a generalised prime filter."""
    return _filter_unaries(_tables(alg), fmask)


def _filter_unaries(tables: _Tables, fmask: int):
    outside = list(bits(tables.full & ~fmask))
    images = [mask_of(op[a] for a in outside) for op in tables.unaries]
    for out in images:
        if not _is_gen_prime_filter(tables, out):
            raise InternalCheckError("negation image of a filter is not a filter")
    f_tilde, f_minus, *f_neg = images
    return f_tilde, f_minus, f_neg[0] if f_neg else None


def filter_product(alg: FinAlgebra, fmask: int, gmask: int) -> list[int]:
    """All generalised prime filters containing every product a.b with
    a in F, b in G; upward closed in containment."""
    return _filter_product(_tables(alg).product, gen_prime_filters(alg), fmask, gmask)


def _filter_product(product: list[list[int]], filters: list[int], fmask: int,
                    gmask: int) -> list[int]:
    """``filter_product`` over the product table as lists and the already
    computed ``gen_prime_filters``."""
    need = 0
    right = list(bits(gmask))
    for a in bits(fmask):
        row = product[a]
        for b in right:
            need |= 1 << row[b]
    out = [h for h in filters if need & ~h == 0]
    chosen = set(out)
    for h in out:
        for h2 in filters:
            if h & ~h2 == 0 and h2 not in chosen:
                raise InternalCheckError("filter product is not upward closed")
    return out


@dataclass
class PointedFrame:
    """A frame whose poset is bounded, with designated bottom and top."""

    frame: Frame
    bottom: int
    top: int

    def __post_init__(self):
        n = self.frame.size
        if not (0 <= self.bottom < n and 0 <= self.top < n):
            raise StructuralError("bounds out of range")


def validate_pointed_frame(pf: PointedFrame) -> ValidationReport:
    """Frame validation plus boundedness and a proper non-empty identity.

    The topological conditions of the space duality hold automatically on
    a finite discrete carrier; the report records that.
    """
    rep = validate_frame(pf.frame)
    rep.notes.append(
        "finite carrier: discrete topology, all sets clopen, space conditions discharged"
    )
    frame = pf.frame
    n = frame.size
    if frame.poset.up[pf.bottom] != frame.poset.carrier:
        rep.add("bounded_bottom", (pf.bottom,))
    if frame.poset.down[pf.top] != frame.poset.carrier:
        rep.add("bounded_top", (pf.top,))
    if pf.bottom == pf.top and n > 1:
        rep.add("bounds_distinct", (pf.bottom,))
    if frame.identity == 0:
        rep.add("identity_nonempty", ())
    if frame.identity == frame.poset.carrier:
        rep.add("identity_proper", ())
    return rep


def filter_frame(alg: FinAlgebra) -> PointedFrame:
    """The doubly-pointed frame on the generalised prime filters."""
    return _filter_frame(alg, gen_prime_filters(alg))


def _filter_frame(alg: FinAlgebra, filters: list[int]) -> PointedFrame:
    """``filter_frame`` over the already computed ``gen_prime_filters(alg)``."""
    tables = _tables(alg)
    index = {f: i for i, f in enumerate(filters)}
    n = len(filters)
    up = tuple(
        mask_of(j for j, g in enumerate(filters) if f & ~g == 0) for f in filters
    )
    poset = Poset(up)
    identity = mask_of(i for i, f in enumerate(filters) if (f >> alg.one) & 1)
    comp = [[0] * n for _ in range(n)]
    for i, f in enumerate(filters):
        for j, g in enumerate(filters):
            comp[i][j] = mask_of(index[h] for h in _filter_product(tables.product, filters, f, g))

    def position(f):
        if f not in index:
            raise InternalCheckError(
                "negation image of a filter left the generalised prime filters"
            )
        return index[f]

    tilde, minus, neg = [], [], ([] if alg.neg is not None else None)
    for f in filters:
        ft, fm, fn = _filter_unaries(tables, f)
        tilde.append(position(ft))
        minus.append(position(fm))
        if neg is not None:
            neg.append(position(fn))
    name = None if alg.name is None else f"filters({alg.name})"
    frame = Frame(poset, identity, comp, tilde, minus, neg=neg, name=name)
    full = (1 << alg.size) - 1
    pf = PointedFrame(frame=frame, bottom=index[0], top=index[full])
    rep = validate_pointed_frame(pf)
    if not rep.ok:
        raise InternalCheckError(f"filter frame failed validation: {rep.summary()}")
    return pf


def _proper_upsets(pf: PointedFrame) -> list[int]:
    frame = pf.frame
    return [u for u in frame.upsets if u not in (0, frame.poset.carrier)]


def space_algebra(pf: PointedFrame, name: str | None = None) -> FinAlgebra:
    """The algebra on the proper non-empty upsets of a pointed frame."""
    ups = _proper_upsets(pf)
    if not ups:
        raise PreconditionError("pointed frame has no proper non-empty upsets")
    return upset_algebra(pf.frame, ups, name)


def priestley_roundtrip(alg: FinAlgebra) -> list[int]:
    """Verify alg is isomorphic to the algebra of its filter frame.

    Returns the witness a -> X_a, where X_a collects the filters
    containing a.
    """
    filters = gen_prime_filters(alg)
    pf = _filter_frame(alg, filters)
    ups = _proper_upsets(pf)
    back = upset_algebra(pf.frame, ups)
    index = {m: i for i, m in enumerate(ups)}
    witness = []
    for a in range(alg.size):
        xa = mask_of(i for i, f in enumerate(filters) if (f >> a) & 1)
        if xa not in index:
            raise InternalCheckError(f"X_{a} is not a proper non-empty upset")
        witness.append(index[xa])
    check_witness(alg.structure, back.structure, witness, "round-trip witness")
    return witness
