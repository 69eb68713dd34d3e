"""Generalised prime filters and the doubly-pointed frame of an algebra.

The points of the dual space of an algebra without lattice bounds in its
signature are the generalised prime filters: the prime filters plus the
empty set and the whole carrier.  On a finite carrier every subset is
clopen, so the topological side of the duality is discharged and recorded
as a note; what remains is a doubly-pointed frame whose proper non-empty
upsets recover the algebra.

On a finite algebra the proper non-empty filters are the principal filters
up(j) at the join-irreducibles j, the points of the dual frame, so the
doubly-pointed frame is the dual frame with the empty filter as its bottom
and the carrier as its top.  ``filter_product`` and ``filter_unaries`` give
its operations by their definitions, for tests to compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FinAlgebra, ValidationReport, join_irreducibles
from .errors import InternalCheckError, PreconditionError, StructuralError
from .frame import Frame, dual_frame, upset_algebra, validate_frame
from .iso import check_witness, set_image
from .order import Poset, bits, mask_of, popcount


def is_gen_prime_filter(alg: FinAlgebra, fmask: int) -> bool:
    """Empty, total, or a proper nonempty prime filter of the lattice."""
    # answered first: an order that is not a lattice has no meet or join table
    return fmask in (0, (1 << alg.size) - 1) or _prime_filter_test(alg)(fmask)


def _prime_filter_test(alg: FinAlgebra):
    """The generalised prime filter test over the lattice tables as Python
    lists, read once so the loops never read a numpy scalar."""
    full, up = (1 << alg.size) - 1, alg.order_poset.up
    meet, join = alg.meet_table.tolist(), alg.join_table.tolist()

    def test(fmask: int) -> bool:
        members = list(bits(fmask))
        if any(up[a] & ~fmask for a in members):
            return False
        if any(not (fmask >> meet[a][b]) & 1 for a in members for b in members):
            return False
        outside = list(bits(full & ~fmask))
        return not any((fmask >> join[a][b]) & 1 for a in outside for b in outside)

    return test


def gen_prime_filters(alg: FinAlgebra) -> list[int]:
    """All generalised prime filters as element bitmasks, sorted by
    (size, mask).

    On a finite distributive lattice these are the empty set, the whole
    carrier, and the principal filters at join-irreducible elements.
    """
    return _prime_filters(alg, join_irreducibles(alg))


def _prime_filters(alg: FinAlgebra, jirr) -> list[int]:
    """``gen_prime_filters`` from the verified join-irreducibles."""
    up = alg.order_poset.up
    filters = {0, (1 << alg.size) - 1} | {up[j] for j in jirr}
    out = sorted(filters, key=lambda m: (popcount(m), m))
    test = _prime_filter_test(alg)
    for f in out:
        if not test(f):
            raise InternalCheckError(f"candidate {f:b} is not a generalised prime filter")
    return out


def filter_unaries(alg: FinAlgebra, fmask: int):
    """(F^~, F^-, F^neg); each is again a generalised prime filter."""
    outside = ((1 << alg.size) - 1) & ~fmask
    ops = (alg.tilde, alg.minus) + (() if alg.neg is None else (alg.neg,))
    images = [set_image(outside, op.tolist()) for op in ops]
    test = _prime_filter_test(alg)
    for out in images:
        if not test(out):
            raise InternalCheckError("negation image of a filter is not a filter")
    f_tilde, f_minus, *f_neg = images
    return f_tilde, f_minus, f_neg[0] if f_neg else None


def filter_product(alg: FinAlgebra, fmask: int, gmask: int) -> list[int]:
    """All generalised prime filters containing every product a.b with
    a in F, b in G; upward closed in containment."""
    filters = gen_prime_filters(alg)
    need = 0
    for a in bits(fmask):
        for b in bits(gmask):
            need |= 1 << int(alg.product[a, b])
    out = [h for h in filters if need & ~h == 0]
    chosen = set(out)
    for h in out:
        for h2 in filters:
            if h & ~h2 == 0 and h2 not in chosen:
                raise InternalCheckError("filter product is not upward closed")
    return out


@dataclass(frozen=True)
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
    """The doubly-pointed frame on the generalised prime filters, in
    ``gen_prime_filters`` order, built from the dual frame: point j becomes
    up(j), each cell and the identity gain the top, composing with the
    bottom gives every point, composing the top with any other point gives
    the top alone (a.0 = 0), and the maps swap the bounds.
    ``frame.carrier_elements`` lists each point's filter as a bitmask.

    Built and validated once per algebra object: every call returns that
    one pointed frame, which callers share and must not change.
    """
    return alg._filter_frame


def _build_filter_frame(alg: FinAlgebra) -> PointedFrame:
    dual = dual_frame(alg)
    filters = _prime_filters(alg, dual.carrier_elements)
    index = {f: i for i, f in enumerate(filters)}
    point = [index[alg.order_poset.up[j]] for j in dual.carrier_elements]
    n = len(filters)
    bottom, top = index[0], index[(1 << alg.size) - 1]
    everything, top_only = (1 << n) - 1, 1 << top

    def image(mask):
        return set_image(mask, point) | top_only

    up = [top_only] * n
    up[bottom] = everything
    comp = [[top_only] * n for _ in range(n)]
    for x in range(n):
        comp[bottom][x] = comp[x][bottom] = everything
    for i, x in enumerate(point):
        up[x] = image(dual.poset.up[i])
        for k, y in enumerate(point):
            comp[x][y] = image(dual.comp[i][k])

    def carry(op):
        if op is None:
            return None
        out = [0] * n
        out[bottom], out[top] = top, bottom
        for i, x in enumerate(point):
            out[x] = point[op[i]]
        return out

    name = None if alg.name is None else f"filters({alg.name})"
    frame = Frame(Poset(tuple(up)), image(dual.identity), comp, carry(dual.tilde),
                  carry(dual.minus), neg=carry(dual.neg), name=name)
    frame.carrier_elements = tuple(filters)
    pf = PointedFrame(frame=frame, bottom=bottom, top=top)
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
    containing a.  The back algebra is built and the witness checked on
    every call.
    """
    pf = filter_frame(alg)
    filters = pf.frame.carrier_elements
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
