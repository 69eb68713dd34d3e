"""The order layer against plain references taken from the definitions.

Every reference below loops over elements and reads nothing but the
order matrix, so it shares no bitmask shortcut with ``qra.order``: covers
are strict bounds with nothing strictly between, a join is the upper bound
below every other upper bound, an irreducible is an element that is not
the join (meet) of two strictly smaller (larger) elements.  The tests run
over every poset on at most five points and its up-set lattice, over the
70-element Dq(E) of the 4-chain and over a random 130-point order, so the
row-to-bitmask conversion crosses 64-bit word boundaries.
"""

import itertools
import random

import numpy as np
import pytest

from qra import FinAlgebra, Poset, RepBase, build_dq, join_irreducibles, meet_irreducibles
from qra.errors import PreconditionError
from qra.order import all_posets


def ref_masks(leq):
    n = len(leq)
    up = tuple(sum(1 << j for j in range(n) if leq[i][j]) for i in range(n))
    down = tuple(sum(1 << j for j in range(n) if leq[j][i]) for i in range(n))
    return up, down


def ref_covers(leq):
    """(upper covers, lower covers) as bitmasks."""
    n = len(leq)
    R = range(n)

    def lt(a, b):
        return a != b and leq[a][b]

    upper = [sum(1 << j for j in R if lt(i, j) and not any(lt(i, k) and lt(k, j) for k in R))
             for i in R]
    lower = [sum(1 << j for j in R if lt(j, i) and not any(lt(j, k) and lt(k, i) for k in R))
             for i in R]
    return tuple(upper), tuple(lower)


def ref_extreme(leq, least):
    """The element below (above) every element, or -1."""
    R = range(len(leq))
    return next((x for x in R if all(leq[x][y] if least else leq[y][x] for y in R)), -1)


def ref_lattice(leq):
    """Join and meet tables with -1 where none exists, bottom and top."""
    R = range(len(leq))

    def least(bounds):
        return next((x for x in bounds if all(leq[x][y] for y in bounds)), -1)

    def greatest(bounds):
        return next((x for x in bounds if all(leq[y][x] for y in bounds)), -1)

    join = [[least([u for u in R if leq[a][u] and leq[b][u]]) for b in R] for a in R]
    meet = [[greatest([d for d in R if leq[d][a] and leq[d][b]]) for b in R] for a in R]
    return join, meet, ref_extreme(leq, True), ref_extreme(leq, False)


def ref_irreducibles(leq, join, meet):
    """(join-irreducibles, meet-irreducibles) of a lattice."""
    R = range(len(leq))

    def lt(a, b):
        return a != b and leq[a][b]

    bottom, top = ref_extreme(leq, True), ref_extreme(leq, False)
    jirr = [x for x in R if x != bottom
            and not any(lt(a, x) and lt(b, x) and join[a][b] == x for a in R for b in R)]
    mirr = [x for x in R if x != top
            and not any(lt(x, a) and lt(x, b) and meet[a][b] == x for a in R for b in R)]
    return jirr, mirr


def is_distributive(join, meet):
    R = range(len(join))
    return all(meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
               for a in R for b in R for c in R)


def ref_involutions(leq):
    """The order reversing bijections g with g(g(x)) = x, by brute force."""
    n = len(leq)
    return sorted(
        g for g in itertools.permutations(range(n))
        if all(g[g[x]] == x for x in range(n))
        and all(leq[i][j] == leq[g[j]][g[i]] for i in range(n) for j in range(n))
    )


def order_algebra(leq) -> FinAlgebra:
    """An algebra carrying only the given order; the other tables are filler."""
    n = len(leq)
    return FinAlgebra(np.array(leq, dtype=bool), np.zeros((n, n), dtype=int), 0,
                      list(range(n)), list(range(n)))


def check_order_layer(leq, lattice_expected=None):
    """Compare ``Poset.from_matrix`` and the tables derived from it, through
    the poset and through ``FinAlgebra``, with the references."""
    poset = Poset.from_matrix(leq)
    assert (poset.up, poset.down) == ref_masks(leq)
    assert poset.down == Poset(poset.up).down
    assert (poset.covers, poset.lower_covers) == ref_covers(leq)
    join, meet, bottom, top = ref_lattice(leq)
    lat = poset.lattice
    assert lat.join.tolist() == join and lat.meet.tolist() == meet
    assert (lat.bottom, lat.top) == (bottom, top)
    assert not lat.join.flags.writeable and not lat.meet.flags.writeable
    is_lattice = all(x >= 0 for row in join + meet for x in row)
    if lattice_expected is not None:
        assert is_lattice == lattice_expected
    alg = order_algebra(leq)
    assert (alg.order_poset.up, alg.order_poset.down) == (poset.up, poset.down)
    for what, table, want in (("join_table", lat.join, join), ("meet_table", lat.meet, meet),
                              ("bottom", None, bottom), ("top", None, top)):
        missing = want == -1 if table is None else (table < 0).any()
        if missing:
            with pytest.raises(PreconditionError):
                getattr(alg, what)
        else:
            got = getattr(alg, what)
            assert (got if table is None else got.tolist()) == want
    if is_lattice:
        jirr, mirr = ref_irreducibles(leq, join, meet)
        assert meet_irreducibles(alg) == mirr
        if is_distributive(join, meet):
            assert join_irreducibles(alg) == jirr
        else:
            with pytest.raises(PreconditionError):
                join_irreducibles(alg)
    return poset


def upset_lattice_leq(poset):
    ups = poset.upsets
    return [[u & ~v == 0 for v in ups] for u in ups]


def test_order_layer_on_every_poset_of_five_points_and_its_upset_lattice():
    for poset in all_posets(5):
        leq = [[bool(v) for v in row] for row in poset.matrix()]
        check_order_layer(leq)
        assert list(poset.order_reversing_involutions) == ref_involutions(leq)
        for mask in range(1 << poset.n):
            closed = all(leq[i][j] <= bool(mask >> j & 1)
                         for i in range(poset.n) if mask >> i & 1 for j in range(poset.n))
            assert poset.is_upset(mask) == closed
        ups_leq = upset_lattice_leq(poset)
        lattice = check_order_layer(ups_leq, lattice_expected=True)
        if lattice.n <= 7:  # brute force stays cheap
            assert list(lattice.order_reversing_involutions) == ref_involutions(ups_leq)
        for g in lattice.order_reversing_involutions:
            assert all(g[g[x]] == x for x in range(lattice.n))
            assert all(ups_leq[i][j] == ups_leq[g[j]][g[i]]
                       for i in range(lattice.n) for j in range(lattice.n))


def test_automorphisms_list_the_identity_first():
    # search._is_orbit_minimal skips automorphisms[0] as the identity
    for poset in all_posets(5):
        assert poset.automorphisms[0] == tuple(range(poset.n))


def test_order_layer_past_one_machine_word():
    poset = Poset.chain(4)
    base = RepBase(poset, tuple([poset.carrier] * 4), tuple(range(4)), tuple(reversed(range(4))))
    alg = build_dq(base).algebra
    assert alg.size == 70
    leq = alg.leq.tolist()
    check_order_layer(leq, lattice_expected=True)
    assert (alg.order_poset.up, alg.order_poset.down) == ref_masks(leq)

    rng = random.Random(130)
    n = 130
    rel = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            rel[i, j] = rng.random() < 0.03
    for k in range(n):
        rel |= rel[:, [k]] & rel[[k], :]
    perm = list(range(n))
    rng.shuffle(perm)
    leq = rel[np.ix_(perm, perm)].tolist()
    check_order_layer(leq, lattice_expected=False)
