"""Relational frames dual to DInFL-algebras and DqRAs.

A frame is a finite poset ``(W, leq)`` with an upward closed identity set
``I``, a composition ``comp[x][y]`` mapping each pair to an upset, and
order reversing maps ``tilde``/``minus`` (mutually inverse), optionally a
``neg``.  The complex algebra of a frame lives on the upsets of ``W``; the
dual frame of an algebra lives on its join-irreducible elements with the
order turned upside down.  At finite scale the two constructions are
mutually inverse, and ``roundtrip_algebra`` / ``roundtrip_frame`` verify
that constructively.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebra import (
    FinAlgebra,
    ValidationReport,
    _witnesses,
    kappa_map,
)
from .errors import InternalCheckError, PreconditionError, SignatureError, StructuralError
from .iso import Structure, check_witness, isomorphisms, relabel_cells, relabel_map, set_image
from .order import (
    InclusionOrder,
    Poset,
    RowIndex,
    bits,
    bools_to_words,
    check_memory,
    masks_to_words,
    row_blocks,
    word_width,
    words_to_bools,
    words_to_masks,
)


class Frame:
    """A finite frame; the empty carrier (size 0) is legal."""

    def __init__(self, poset: Poset, identity: int, comp, tilde, minus,
                 neg=None, name: str | None = None):
        self.poset = poset
        self.size = poset.n
        self.identity = int(identity)
        self.comp = tuple(tuple(int(m) for m in row) for row in comp)
        self.tilde = tuple(int(v) for v in tilde)
        self.minus = tuple(int(v) for v in minus)
        self.neg = None if neg is None else tuple(int(v) for v in neg)
        self.name = name
        self._check_structure()

    def _check_structure(self):
        n = self.size
        carrier = self.poset.carrier
        if self.identity & ~carrier:
            raise StructuralError("identity set is not a subset of the carrier")
        if len(self.comp) != n or any(len(row) != n for row in self.comp):
            raise StructuralError("composition table must be n x n")
        for row in self.comp:
            for cell in row:
                if cell & ~carrier:
                    raise StructuralError("composition entry is not a subset of the carrier")
        for what, perm in (("tilde", self.tilde), ("minus", self.minus), ("neg", self.neg)):
            if perm is None:
                continue
            if len(perm) != n or sorted(perm) != list(range(n)):
                raise StructuralError(f"{what} is not a permutation of the carrier")

    def leq(self, x: int, y: int) -> bool:
        return self.poset.leq(x, y)

    def has_neg(self) -> bool:
        return self.neg is not None

    def signature(self) -> str:
        return "dqra" if self.neg is not None else "dinfl"

    def without_neg(self, name=None) -> "Frame":
        return Frame(self.poset, self.identity, self.comp, self.tilde, self.minus,
                     neg=None, name=name or self.name)

    def with_neg(self, neg, name=None) -> "Frame":
        return Frame(self.poset, self.identity, self.comp, self.tilde, self.minus,
                     neg=neg, name=name or self.name)

    def contains(self, x: int, y: int, z: int) -> bool:
        """The ternary relation view: z in x o y."""
        return bool((self.comp[x][y] >> z) & 1)

    def compose_sets(self, umask: int, vmask: int) -> int:
        out = 0
        for x in bits(umask):
            row = self.comp[x]
            for y in bits(vmask):
                out |= row[y]
        return out

    def encoding(self) -> tuple:
        return (self.identity, self.tilde, self.minus, self.neg,
                tuple(cell for row in self.comp for cell in row))

    def relabel(self, perm, name=None) -> "Frame":
        """Transport the frame along the poset automorphism i -> perm[i]."""
        neg = None if self.neg is None else relabel_map(self.neg, perm)
        return Frame(self.poset.relabel(perm), set_image(self.identity, perm),
                     relabel_cells(self.comp, perm), relabel_map(self.tilde, perm),
                     relabel_map(self.minus, perm), neg=neg, name=name)

    @cached_property
    def upsets(self) -> tuple[int, ...]:
        return self.poset.upsets

    @cached_property
    def structure(self) -> Structure:
        """The order, identity set, composition and maps for :mod:`qra.iso`."""
        maps = {"tilde": self.tilde, "minus": self.minus, "neg": self.neg}
        return Structure(self.size, [
            ("the order", "rel", 2, self.poset.up),
            ("the identity set", "rel", 1, [self.identity]),
            ("composition", "rel", 3, [cell for row in self.comp for cell in row]),
        ] + [(name, "op", 1, m) for name, m in maps.items() if m is not None])

    def __repr__(self):
        label = self.name or "frame"
        return f"Frame({label}, n={self.size}, {self.signature()})"


def empty_frame(name: str | None = None) -> Frame:
    return Frame(Poset(()), 0, (), (), (), name=name)


# -- validation -------------------------------------------------------------


def _membership(frame: Frame) -> np.ndarray:
    """The cube member[x, y, w] = (w in comp[x][y])."""
    n = frame.size
    cells = masks_to_words([cell for row in frame.comp for cell in row], word_width(n))
    return words_to_bools(cells, n).reshape(n, n, n)


def validate_dinfl_frame(frame: Frame) -> ValidationReport:
    """Check every defining frame condition, plus the derived monotonicity
    and inverse laws as redundancy.

    The conditions on the composition are read off one boolean cube,
    member[x, y, w] = (w in x o y), built once per call.  Associativity is
    checked one x at a time by two matrix products of the cube's slices,
    (x o y) o z and x o (y o z) for every y and z at once, so no array is
    larger than n**3; the witness sets are composed only at the failing
    triples.  Rotation, the upset condition and the antitone laws are
    gathers and products of the same cube.  Witnesses and their order are
    those of a plain loop over the tuples in lexicographic order.
    """
    return _dinfl_report(frame, _membership(frame))


def _dinfl_report(frame: Frame, member: np.ndarray) -> ValidationReport:
    rep = ValidationReport(subject=frame.name or "frame")
    n = frame.size
    poset = frame.poset
    poset.check_partial_order()
    up = poset.up
    comp = frame.comp
    identity = frame.identity
    tilde, minus = frame.tilde, frame.minus
    cube = member.astype(np.float32)
    leq = poset.relation.astype(np.float32)

    if not poset.is_upset(identity):
        xs = [x for x in bits(identity) if up[x] & ~identity]
        rep.add("identity_upset", (xs[0],) if xs else ())
    for x in range(n):
        left = 0
        right = 0
        for i in bits(identity):
            left |= comp[i][x]
            right |= comp[x][i]
        if left != up[x]:
            rep.add("identity_composition_left", (x, left, up[x]))
        if right != up[x]:
            rep.add("identity_composition_right", (x, right, up[x]))
    closed = (cube.reshape(n * n, n) @ leq > 0).reshape(n, n, n)
    for witness in _witnesses((closed & ~member).any(axis=2)):
        rep.add("composition_upset", witness)
    # lhs[y, z, w]: w in (x o y) o z;  rhs[y, z, w]: w in x o (y o z)
    by_left, by_right = cube.reshape(n, n * n), cube.reshape(n * n, n)
    broken = np.zeros((n, n, n), dtype=bool)
    for x in range(n):
        lhs = (cube[x] @ by_left).reshape(n, n, n) > 0
        rhs = (by_right @ cube[x]).reshape(n, n, n) > 0
        broken[x] = (lhs != rhs).any(axis=2)
    for x, y, z in _witnesses(broken):
        lhs = frame.compose_sets(comp[x][y], 1 << z)
        rhs = frame.compose_sets(1 << x, comp[y][z])
        rep.add("composition_associative", (x, y, z, lhs, rhs))
    tilde_at = np.array(tilde, dtype=np.intp)
    minus_at = np.array(minus, dtype=np.intp)
    # z^~ in x o y  iff  y^- in z o x
    rotated = member[:, :, tilde_at] != member[:, :, minus_at].transpose(1, 2, 0)
    for witness in _witnesses(rotated):
        rep.add("rotation", witness)
    for x in range(n):
        if not poset.leq(minus[tilde[x]], x):
            rep.add("linear_negation_collapse", (x, "tilde-minus"))
        if not poset.leq(tilde[minus[x]], x):
            rep.add("linear_negation_collapse", (x, "minus-tilde"))

    # Derived laws; failures here with the above all passing indicate a bug.
    for x in range(n):
        if minus[tilde[x]] != x or tilde[minus[x]] != x:
            rep.add("derived_negation_inverse", (x,))
        for y in bits(up[x]):
            if not poset.leq(tilde[y], tilde[x]) or not poset.leq(minus[y], minus[x]):
                rep.add("derived_negation_antitone", (x, y))
    # escapes[w, y, x]: y o w is not inside x o w (left), w o y not inside w o x
    outside = (~member).astype(np.float32)
    escapes_left = np.matmul(cube.transpose(1, 0, 2), outside.transpose(1, 2, 0)) > 0
    escapes_right = np.matmul(cube, outside.transpose(0, 2, 1)) > 0
    above = (leq > 0) & ~np.eye(n, dtype=bool)
    found = [
        ((x, w, y), law)
        for law, escapes in (("derived_composition_antitone_left", escapes_left),
                             ("derived_composition_antitone_right", escapes_right))
        # at [x, w, y] for every y strictly above x
        for x, w, y in _witnesses(above[:, None, :] & escapes.transpose(2, 0, 1))
    ]
    for (x, w, y), law in sorted(found):
        rep.add(law, (x, y, w))
    return rep


def validate_dqra_frame(frame: Frame) -> ValidationReport:
    if frame.neg is None:
        raise SignatureError("frame carries no neg map")
    member = _membership(frame)
    rep = _dinfl_report(frame, member)
    n = frame.size
    poset = frame.poset
    neg, tilde, minus = frame.neg, frame.tilde, frame.minus
    for x in range(n):
        if neg[neg[x]] != x:
            rep.add("neg_involution", (x,))
        for y in bits(poset.up[x]):
            if not poset.leq(neg[y], neg[x]):
                rep.add("neg_antitone", (x, y))
    # z^- in x o y  iff  z^neg in (y^~)^neg o (x^~)^neg
    twist = np.array([neg[t] for t in tilde], dtype=np.intp)
    neg_at = np.array(neg, dtype=np.intp)
    twisted = member[np.ix_(twist, twist, neg_at)].transpose(1, 0, 2)
    for witness in _witnesses(member[:, :, np.array(minus, dtype=np.intp)] != twisted):
        rep.add("neg_rotation", witness)
    for x in range(n):
        if neg[tilde[x]] != minus[neg[x]]:
            rep.add("derived_neg_tilde_compat", (x,))
        if neg[minus[x]] != tilde[neg[x]]:
            rep.add("derived_neg_minus_compat", (x,))
    return rep


def validate_frame(frame: Frame) -> ValidationReport:
    return validate_dqra_frame(frame) if frame.has_neg() else validate_dinfl_frame(frame)


# -- the two dual constructions ----------------------------------------------


def _union_over(member: np.ndarray, table: np.ndarray) -> np.ndarray:
    """out[a] is the union of the word rows table[i] over the i with member[a, i]."""
    rows = np.broadcast_to(table, (len(member),) + table.shape)
    where = member.reshape(member.shape + (1,) * (table.ndim - 1))
    return np.bitwise_or.reduce(rows, axis=1, where=where)


def _union_at(table: np.ndarray, points: np.ndarray) -> np.ndarray:
    """out[r, i] is the union of the word rows table[r, p] over the points
    p in row i of ``points``, one column of ``points`` at a time."""
    out = table[:, points[:, 0]]
    for column in points.T[1:]:
        out |= table[:, column]
    return out


def _positions(sets, found: np.ndarray, what: str) -> np.ndarray:
    """The index of each word row of ``found`` among the distinct word rows
    ``sets`` (or the ``RowIndex`` of them); a row not among them is an
    internal error."""
    index = sets if isinstance(sets, RowIndex) else RowIndex(sets)
    at = index.find(found)
    if (at < 0).any():
        raise InternalCheckError(f"{what} left the upsets of the algebra")
    return at


def _minimal_points(frame: Frame, ups) -> list[list[int]]:
    """The minimal points of each listed set, in increasing order; a set
    that is not an up-set of the frame, or is listed twice, raises
    ``PreconditionError``."""
    strict = [u & ~(1 << x) for x, u in enumerate(frame.poset.up)]
    out, seen = [], set()
    for u in ups:
        if u in seen:
            raise PreconditionError(f"the set {u:#x} is listed twice")
        seen.add(u)
        above, rest = 0, u
        while rest:
            low = rest & -rest
            above |= strict[low.bit_length() - 1]
            rest ^= low
        if above & ~u:
            raise PreconditionError(f"the listed set {u:#x} is not an up-set of the frame")
        out.append(list(bits(u & ~above)))
    return out


def _padded(rows) -> np.ndarray:
    """Lists of indices as the rows of one array, padded with -1 (at least
    one column)."""
    width = max(map(len, rows), default=0) or 1
    return np.array([row + [-1] * (width - len(row)) for row in rows],
                    dtype=np.intp).reshape(len(rows), width)


def upset_algebra(frame: Frame, ups, name: str | None = None) -> FinAlgebra:
    """The algebra on the listed upsets of the frame, ordered by inclusion.

    Product is the lifted composition, the unit is the identity set, and
    the negations send an upset U to the points whose image under the
    paired map falls outside U.  Every one of these must land in ``ups``,
    whose sets must be distinct up-sets of the frame (an empty list, a set
    listed twice or a set that is not an up-set raises
    ``PreconditionError``).  U.V is the union of comp[x][y]
    over x in U and y in V.  An up-set is the union of the principal
    up-sets of its minimal points, so U.V is the union of U.(up y) over
    the minimal points y of V, for every frame, whether its composition is
    monotone or not.  The table is formed in three vectorised stages:
    {x}.(up y), the composition closed upward in its second argument once
    over the points of the frame; U.(up y), its union over the points x
    of U; and U.V, the union of U.(up y) over the at most a few minimal
    points y of V, a block of rows at a time, each block looked up among
    the sets as it is formed.  Sets are rows of 64-bit words, so the
    tables are exact for any number of points.  The order is an
    ``InclusionOrder``: its covers are the listed sets one minimal point
    smaller, and its join and meet the union and intersection.  A product
    table larger than physical memory, as int32 positions plus the order
    matrix, raises before anything is allocated.
    """
    n, width, count = frame.size, word_width(frame.size), len(ups)
    if not count:
        raise PreconditionError("an up-set algebra needs at least one listed set")
    check_memory(5 * count ** 2, f"the product table of {count} upsets")
    sets = masks_to_words(ups, width)
    order = InclusionOrder(sets, _padded(_minimal_points(frame, ups)))
    index, minimal = order.index, order.removable
    member = words_to_bools(sets, n)
    # point n, read by the padding -1, stands for no point: an empty set in
    # every cell
    comp = np.zeros((n, n + 1, width), dtype="<u8")
    comp[:, :n] = masks_to_words([cell for row in frame.comp for cell in row],
                                 width).reshape(n, n, width)
    principal = _padded([list(bits(u)) for u in frame.poset.up] + [[]])
    # {x}.(up y) at [x, y], then U.(up y) at [U, y]
    half = _union_over(member, _union_at(comp, principal))
    product = np.empty((count, count), dtype=np.int32)
    for rows in row_blocks(count, count * width):
        product[rows] = _positions(index, _union_at(half[rows], minimal), "composition")
    one = _positions(index, masks_to_words([frame.identity], width), "the identity set")[0]
    # ~U = {w | w^- not in U}, -U = {w | w^~ not in U}, likewise for neg
    maps = [frame.minus, frame.tilde] + ([] if frame.neg is None else [frame.neg])
    images = bools_to_words(~member[:, np.array(maps, dtype=np.intp)].transpose(1, 0, 2))
    tilde, minus, *neg = _positions(index, images, "negation")
    return FinAlgebra(order, product, one, tilde, minus, neg=neg[0] if neg else None,
                      name=name)


def complex_algebra(frame: Frame, name: str | None = None) -> FinAlgebra:
    """The algebra of all upsets of the frame (see ``upset_algebra``)."""
    if name is None and frame.name:
        name = f"{frame.name}^+"
    return upset_algebra(frame, frame.upsets, name)


def dual_frame(alg: FinAlgebra, name: str | None = None) -> Frame:
    """The frame on the join-irreducible elements with the order reversed.

    Built, with kappa verified, once per algebra object: every call
    without ``name`` returns that one frame, which callers share and must
    not change.  A ``name`` gives a copy of it so named.
    """
    frame = alg._dual_frame
    if name is None:
        return frame
    named = Frame(frame.poset, frame.identity, frame.comp, frame.tilde, frame.minus,
                  neg=frame.neg, name=name)
    named.carrier_elements = frame.carrier_elements
    return named


def _build_dual_frame(alg: FinAlgebra) -> Frame:
    kmap = kappa_map(alg)
    jirr = list(kmap)
    pos = {a: i for i, a in enumerate(jirr)}
    # J ∩ ↓a for each element a, bit k for the k-th join-irreducible
    below = words_to_masks(alg.order_poset.down_keys)
    poset = Poset(tuple(below[j] for j in jirr))
    identity = below[alg.one]
    product = alg.product.tolist()
    comp = [[below[product[a][b]] for b in jirr] for a in jirr]

    def unary_from(op):
        out = []
        for a in jirr:
            v = int(op[kmap[a]])
            if v not in pos:
                raise InternalCheckError(
                    "negation of a kappa value left the join-irreducibles"
                )
            out.append(pos[v])
        return out

    tilde = unary_from(alg.tilde)
    minus = unary_from(alg.minus)
    neg = None if alg.neg is None else unary_from(alg.neg)
    name = f"{alg.name}_+" if alg.name else None
    frame = Frame(poset, identity, comp, tilde, minus, neg=neg, name=name)
    frame.carrier_elements = tuple(jirr)
    return frame


def roundtrip_algebra(alg: FinAlgebra) -> list[int]:
    """Verify alg is isomorphic to the complex algebra of its dual frame.

    Returns the witness psi as a list: element a maps to the index of the
    upset of join-irreducibles below a.  Failure raises, because the
    round-trip holds for every valid finite input.  The back algebra is
    built and the witness checked on every call.
    """
    frame = dual_frame(alg)
    back = complex_algebra(frame)
    ups_index = {m: i for i, m in enumerate(frame.upsets)}
    psi = []
    for a, image in enumerate(words_to_masks(alg.order_poset.down_keys)):
        if image not in ups_index:
            raise InternalCheckError(f"psi({a}) is not an upset of the dual frame")
        psi.append(ups_index[image])
    check_witness(alg.structure, back.structure, psi, "round-trip witness")
    return psi


def roundtrip_frame(frame: Frame) -> list[int]:
    """Verify the frame is isomorphic to the dual frame of its complex algebra.

    Returns the witness sending a point x to the position of the principal
    upset at x.
    """
    alg = complex_algebra(frame)
    back = dual_frame(alg)
    jirr = back.carrier_elements
    ups_index = {m: i for i, m in enumerate(frame.upsets)}
    image = []
    for x in range(frame.size):
        principal = frame.poset.up[x]
        a = ups_index[principal]
        if a not in jirr:
            raise InternalCheckError(f"principal upset at {x} is not join-irreducible")
        image.append(jirr.index(a))
    check_witness(frame.structure, back.structure, image, "frame witness")
    return image


def frame_iso(f1: Frame, f2: Frame):
    """A structure-preserving bijection f1 -> f2, or None.

    Deterministic: the witness has the lexicographically least image
    sequence (see :mod:`qra.iso`).
    """
    if (f1.neg is None) != (f2.neg is None):
        raise SignatureError("cannot compare frames with different signatures")
    found = isomorphisms(f1.structure, f2.structure, first=True)
    return list(found[0]) if found else None
