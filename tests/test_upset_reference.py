"""upset_algebra's product table against the two-stage union it replaced.

``upset_algebra`` reads U.V off the minimal points of U and V, through the
composition closed upward.  The reference below forms U.V as the union of
comp[x][y] over every x in U and y in V, in two vectorised stages (over
the points of V, then over those of U), as ``upset_algebra`` did before,
and shares no code with it.  Tables are compared as sets of points.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qra.catalog import build_catalog
from qra.errors import PreconditionError
from qra.frame import Frame, dual_frame, upset_algebra
from qra.order import Poset, all_posets, bits
from qra.ra import builtin_atom_structures
from qra.represent import SearchOptions, dq_frame, iterate_bases


def words(masks, width: int) -> np.ndarray:
    raw = b"".join(int(m).to_bytes(8 * width, "little") for m in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), width)


def union_over(member: np.ndarray, table: np.ndarray) -> np.ndarray:
    """out[a] is the union of the word rows table[i] over the i with member[a, i]."""
    rows = np.broadcast_to(table, (len(member),) + table.shape)
    where = member.reshape(member.shape + (1,) * (table.ndim - 1))
    return np.bitwise_or.reduce(rows, axis=1, where=where)


def reference_products(frame: Frame, ups) -> np.ndarray:
    """[a, b] is the word row of the union of comp[x][y], x in ups[a], y in ups[b]."""
    n, width = frame.size, max(1, -(-frame.size // 64))
    sets = words(ups, width)
    member = np.unpackbits(sets.view(np.uint8), axis=1, count=n,
                           bitorder="little").astype(bool)
    comp = words([cell for row in frame.comp for cell in row], width).reshape(n, n, width)
    right = union_over(member, comp.transpose(1, 0, 2))
    return union_over(member, right.transpose(1, 0, 2))


def assert_products_match(frame: Frame, ups=None):
    ups = list(frame.upsets if ups is None else ups)
    alg = upset_algebra(frame, ups)
    width = max(1, -(-frame.size // 64))
    assert np.array_equal(words(ups, width)[alg.product], reference_products(frame, ups))


def is_monotone(frame: Frame) -> bool:
    """Whether x <= x' and y <= y' give comp[x][y] within comp[x'][y']."""
    up, comp = frame.poset.up, frame.comp
    return all(comp[x][y] & ~comp[x2][y2] == 0
               for x in range(frame.size) for y in range(frame.size)
               for x2 in bits(up[x]) for y2 in bits(up[y]))


@pytest.mark.parametrize("need_beta", [False, True])
def test_dq_frames_of_every_base_up_to_three_points(need_beta):
    for base in iterate_bases(3, need_beta, SearchOptions()):
        assert_products_match(dq_frame(base))


def test_dual_frames_of_the_catalogue():
    for entry in build_catalog():
        for alg in [entry.base] + [v.algebra for v in entry.variants]:
            assert_products_match(dual_frame(alg))


def test_atom_frames_of_the_relation_algebras():
    structs = builtin_atom_structures()
    assert len(structs) == 37
    for struct in structs:
        converse = [struct.converse_atom(i) for i in range(4)]
        frame = Frame(Poset.antichain(4), 1, struct.comp, converse, converse, neg=range(4))
        assert_products_match(frame, range(16))


SELF_DUAL = [p for p in all_posets(5) if p.is_self_dual]


@st.composite
def frames_with_upset_cells(draw):
    """Cells and identity are random up-sets, so products stay up-sets but
    the composition need not be monotone; tilde is an order-reversing
    bijection and minus its inverse, so the negations stay up-sets too."""
    poset = draw(st.sampled_from(SELF_DUAL))
    n, ups = poset.n, poset.upsets
    cell = st.sampled_from(ups)
    comp = [[draw(cell) for _ in range(n)] for _ in range(n)]
    tilde = draw(st.sampled_from(poset.order_reversing_bijections))
    minus = [0] * n
    for x, t in enumerate(tilde):
        minus[t] = x
    return Frame(poset, draw(cell), comp, tilde, minus, name="random")


@settings(max_examples=200, deadline=None)
@given(frames_with_upset_cells())
def test_frames_whose_composition_is_not_monotone(frame):
    assume(not is_monotone(frame))
    assert_products_match(frame)


def test_a_listed_set_that_is_not_an_upset_is_refused():
    # the 2-chain 0 < 1: {0} is not an up-set, although the algebra on
    # every subset would still have a product table
    frame = Frame(Poset.chain(2), 0b11, [[0b11, 0b10], [0b10, 0b10]], [1, 0], [1, 0])
    assert_products_match(frame)
    with pytest.raises(PreconditionError, match="0x1 is not an up-set"):
        upset_algebra(frame, [0, 0b01, 0b10, 0b11])


def test_an_empty_list_is_refused():
    frame = Frame(Poset.chain(2), 0b11, [[0b11, 0b10], [0b10, 0b10]], [1, 0], [1, 0])
    with pytest.raises(PreconditionError, match="at least one listed set"):
        upset_algebra(frame, [])


def test_a_set_listed_twice_is_refused():
    # the negations of the 2-chain's up-sets stay within the list, so only
    # the repeat is wrong
    frame = Frame(Poset.chain(2), 0b11, [[0b11, 0b10], [0b10, 0b10]], [1, 0], [1, 0])
    with pytest.raises(PreconditionError, match="0x2 is listed twice"):
        upset_algebra(frame, [0, 0b10, 0b10, 0b11])
