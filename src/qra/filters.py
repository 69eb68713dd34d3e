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

from .algebra import FinAlgebra, ValidationReport, join_irreducibles
from .errors import InternalCheckError, PreconditionError, StructuralError
from .frame import Frame, upset_algebra, validate_frame
from .iso import check_witness
from .order import Poset, bits, mask_of, popcount


def is_gen_prime_filter(alg: FinAlgebra, fmask: int) -> bool:
    """Empty, total, or a proper nonempty prime filter of the lattice."""
    full = (1 << alg.size) - 1
    if fmask in (0, full):
        return True
    for a in bits(fmask):
        if alg.order_poset.up[a] & ~fmask:
            return False
    for a in bits(fmask):
        for b in bits(fmask):
            if not (fmask >> alg.meet_table[a, b]) & 1:
                return False
    comp = full & ~fmask
    for a in bits(comp):
        for b in bits(comp):
            if (fmask >> alg.join_table[a, b]) & 1:
                return False
    return True


def gen_prime_filters(alg: FinAlgebra) -> list[int]:
    """All generalised prime filters as element bitmasks, sorted by
    (size, mask).

    On a finite distributive lattice these are the empty set, the whole
    carrier, and the principal filters at join-irreducible elements.
    """
    full = (1 << alg.size) - 1
    filters = {0, full}
    for j in join_irreducibles(alg):
        filters.add(alg.order_poset.up[j])
    out = sorted(filters, key=lambda m: (popcount(m), m))
    for f in out:
        if not is_gen_prime_filter(alg, f):
            raise InternalCheckError(f"candidate {f:b} is not a generalised prime filter")
    return out


def filter_unaries(alg: FinAlgebra, fmask: int):
    """(F^~, F^-, F^neg); each is again a generalised prime filter."""
    full = (1 << alg.size) - 1
    comp = full & ~fmask

    def image(op):
        return mask_of(int(op[a]) for a in bits(comp))

    f_tilde = image(alg.tilde)
    f_minus = image(alg.minus)
    f_neg = None if alg.neg is None else image(alg.neg)
    for out in (f_tilde, f_minus) + ((f_neg,) if f_neg is not None else ()):
        if not is_gen_prime_filter(alg, out):
            raise InternalCheckError("negation image of a filter is not a filter")
    return f_tilde, f_minus, f_neg


def filter_product(alg: FinAlgebra, fmask: int, gmask: int) -> list[int]:
    """All generalised prime filters containing every product a.b with
    a in F, b in G; upward closed in containment."""
    return _filter_product(alg, gen_prime_filters(alg), fmask, gmask)


def _filter_product(alg: FinAlgebra, filters: list[int], fmask: int, gmask: int) -> list[int]:
    """``filter_product`` over the already computed ``gen_prime_filters(alg)``."""
    need = 0
    for a in bits(fmask):
        row = alg.product[a]
        for b in bits(gmask):
            need |= 1 << int(row[b])
    out = [h for h in filters if need & ~h == 0]
    for h in out:
        for h2 in filters:
            if h & ~h2 == 0 and h2 not in out:
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
            comp[i][j] = mask_of(index[h] for h in _filter_product(alg, filters, f, g))

    def position(f):
        if f not in index:
            raise InternalCheckError(
                "negation image of a filter left the generalised prime filters"
            )
        return index[f]

    tilde, minus, neg = [], [], ([] if alg.neg is not None else None)
    for f in filters:
        ft, fm, fn = filter_unaries(alg, f)
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
