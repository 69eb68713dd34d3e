"""The order layer against plain references taken from the definitions.

Every reference below loops over elements and reads nothing but the
order matrix, so it shares no bitmask shortcut with ``qra.order``: covers
are strict bounds with nothing strictly between, a join is the upper bound
below every other upper bound, an irreducible is an element that is not
the join (meet) of two strictly smaller (larger) elements.  The tests run
over every poset on at most five points and its up-set lattice, over the
70-element Dq(E) of the 4-chain and over a random 130-point order, so the
row-to-bitmask conversion crosses 64-bit word boundaries.  The same
references check the ``InclusionOrder`` that ``upset_algebra`` builds,
which reads covers and lattice tables off the sets where its lemma's
premise holds, on families where it holds and on one where it fails.

``reference_lattice_by_masks`` keeps the lattice tables as they were
computed before the irreducible keys: a dictionary lookup of the
intersection of two up-sets (down-sets) among the up-sets (down-sets),
pair by pair.  It reads the masks literally, so it also pins the tables of
relations that are not partial orders.
"""

import itertools
import random

import numpy as np
import pytest

import qra.order
from conftest import block_family
from qra import (
    FinAlgebra,
    Poset,
    RepBase,
    build_dq,
    complex_algebra,
    join_irreducibles,
    meet_irreducibles,
)
from qra.errors import PreconditionError
from qra.frame import Frame, upset_algebra
from qra.order import InclusionOrder, all_posets, bits
from qra.represent import SearchOptions, dq_frame, iterate_bases


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


def ref_order_laws(leq):
    """Whether the relation is a partial order, and the pairs (i, j) in
    row-major order with i <= k <= j for some k but not i <= j."""
    R = range(len(leq))
    intransitive = [(i, j) for i in R for j in R
                    if not leq[i][j] and any(leq[i][k] and leq[k][j] for k in R)]
    antisymmetric = not any(i != j and leq[i][j] and leq[j][i] for i in R for j in R)
    return all(leq[i][i] for i in R) and antisymmetric and not intransitive, intransitive


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


def reference_lattice_by_masks(poset):
    """Join and meet tables with -1 where none exists, bottom and top, by
    looking up each intersection of up-sets (down-sets) among the up-sets
    (down-sets); a mask listed twice names its last element."""
    n, up, down = poset.n, poset.up, poset.down
    uppers = {m: i for i, m in enumerate(up)}
    lowers = {m: i for i, m in enumerate(down)}
    join = np.empty((n, n), dtype=np.int32)
    meet = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        join[i, i:] = join[i:, i] = [uppers.get(up[i] & u, -1) for u in up[i:]]
        meet[i, i:] = meet[i:, i] = [lowers.get(down[i] & d, -1) for d in down[i:]]
    full = (1 << n) - 1
    return join, meet, uppers.get(full, -1), lowers.get(full, -1)


def assert_lattice_by_masks(poset):
    join, meet, bottom, top = reference_lattice_by_masks(poset)
    lat = poset.lattice
    assert np.array_equal(lat.join, join) and np.array_equal(lat.meet, meet)
    assert (lat.bottom, lat.top) == (bottom, top)


def chain_dq(k):
    chain = Poset.chain(k)
    base = RepBase(chain, tuple([chain.carrier] * k), tuple(range(k)), tuple(reversed(range(k))))
    return build_dq(base).algebra


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


def order_algebra(order) -> FinAlgebra:
    """An algebra carrying only the given order, a boolean matrix or a
    ``Poset`` it then shares; the other tables are filler."""
    n = order.n if isinstance(order, Poset) else len(order)
    return FinAlgebra(order, np.zeros((n, n), dtype=int), 0, list(range(n)), list(range(n)))


def check_order_layer(leq, lattice_expected=None, poset=None):
    """Compare ``poset`` (by default ``Poset.from_matrix(leq)``) and the
    tables derived from it, through the poset and through ``FinAlgebra``,
    with the references."""
    given = poset is not None
    poset = poset if given else Poset.from_matrix(leq)
    assert (poset.up, poset.down) == ref_masks(leq)
    assert poset.relation.tolist() == [[bool(v) for v in row] for row in leq]
    assert poset.down == Poset(poset.up).down
    upper, lower = ref_covers(leq)
    assert (poset.covers, poset.lower_covers) == (upper, lower)
    assert poset.cover_pairs.tolist() == [[i, j] for i in range(len(leq)) for j in bits(upper[i])]
    is_order, intransitive = ref_order_laws(leq)
    assert poset.is_partial_order == is_order
    assert poset.intransitive_pairs.reshape(-1, 2).tolist() == [list(p) for p in intransitive]
    join, meet, bottom, top = ref_lattice(leq)
    lat = poset.lattice
    assert lat.join.tolist() == join and lat.meet.tolist() == meet
    assert (lat.bottom, lat.top) == (bottom, top)
    assert not lat.join.flags.writeable and not lat.meet.flags.writeable
    is_lattice = all(x >= 0 for row in join + meet for x in row)
    if lattice_expected is not None:
        assert is_lattice == lattice_expected
    alg = order_algebra(poset if given else np.array(leq, dtype=bool))
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


def inclusion_order(poset: Poset) -> InclusionOrder:
    """The order ``upset_algebra`` gives the up-sets of ``poset``: the sets
    as 64-bit words, each with its minimal points."""
    ups = poset.upsets
    sets = np.array(ups, dtype="<u8").reshape(len(ups), 1)
    minimal = [[x for x in bits(u) if poset.down[x] & u == 1 << x] for u in ups]
    width = max(map(len, minimal)) or 1
    return InclusionOrder(sets, np.array([m + [-1] * (width - len(m)) for m in minimal]))


def check_upset_family(order: Poset, from_sets: bool):
    """The references on an up-set family's order, and the route it takes:
    read off the sets, or ``Poset``'s own where the lemma's premise fails."""
    assert isinstance(order, InclusionOrder)
    check_order_layer(order.relation.tolist(), lattice_expected=True, poset=order)
    if from_sets:
        assert order._paths is order._from_sets[0] and order.lattice is order._from_sets[1]
    else:
        assert order._from_sets is None


def test_upset_orders_read_off_their_sets_match_the_references():
    # every poset on at most five points: the whole up-set lattice.  Only a
    # self-dual poset has the order-reversing point maps a frame needs to
    # lift it through upset_algebra; the others build the order directly
    for poset in all_posets(5):
        if poset.is_self_dual:
            tilde = poset.order_reversing_bijections[0]
            minus = [tilde.index(x) for x in range(poset.n)]
            full = [[poset.carrier] * poset.n] * poset.n
            order = complex_algebra(Frame(poset, poset.carrier, full, tilde, minus)).order_poset
        else:
            order = inclusion_order(poset)
        assert order.up == Poset.from_matrix(upset_lattice_leq(poset)).up
        check_upset_family(order, from_sets=True)
    # the Dq(E) of every base on at most two points, and of the 4-chain
    dqs = [upset_algebra(frame, frame.upsets) for frame in
           (dq_frame(base) for need_beta in (False, True)
            for base in iterate_bases(2, need_beta, SearchOptions()))]
    dqs.append(chain_dq(4))
    assert dqs[-1].size == 70
    for alg in dqs:
        check_upset_family(alg.order_poset, from_sets=True)
    # unions of blocks: closed under union and intersection, but a union
    # covers another by a whole block, so covers come from Poset
    frame, _, ups = block_family()
    check_upset_family(upset_algebra(frame, ups).order_poset, from_sets=False)
    # every set but the empty one has a listed set one point smaller, but
    # {0} ∪ {1} is not listed: two chains from the empty set to the whole
    # 4-point antichain, closed under complement, a lattice that is not
    # distributive
    sets = [0, 0b0001, 0b0010, 0b0101, 0b1010, 0b1101, 0b1110, 0b1111]
    frame = Frame(Poset.antichain(4), 0b1111, [[0] * 4] * 4, range(4), range(4))
    check_upset_family(upset_algebra(frame, sets).order_poset, from_sets=False)


def test_automorphisms_list_the_identity_first():
    # search._branch_stabiliser keeps automorphisms[0] first and
    # search._is_orbit_minimal skips it as the identity
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


def test_lattice_tables_match_the_mask_lookup_on_large_lattices():
    for k, size, width in ((5, 252, 1), (6, 924, 1)):
        alg = chain_dq(k)
        assert alg.size == size
        poset = Poset.from_matrix(alg.leq, check=False)
        assert poset.down_keys.shape == (size, width)
        assert_lattice_by_masks(poset)
    # the Boolean lattice 2^9: the 9 atoms are its join-irreducibles
    subsets = np.arange(1 << 9)
    boolean = Poset.from_matrix((subsets[:, None] & ~subsets[None, :]) == 0)
    assert boolean.join_irreducibles == tuple(1 << i for i in range(9))
    assert_lattice_by_masks(boolean)
    assert (boolean.lattice.join == subsets[:, None] | subsets[None, :]).all()
    # a 70-chain has 69 join-irreducibles: keys of two 64-bit words
    chain = Poset.chain(70)
    assert chain.down_keys.shape == (70, 2) and chain.up_keys.shape == (70, 2)
    assert_lattice_by_masks(chain)
    assert (chain.lattice.meet == np.minimum.outer(np.arange(70), np.arange(70))).all()


def test_lattice_tables_match_the_mask_lookup_on_relations_that_are_not_orders():
    # not reflexive, not antisymmetric (equal up-sets: the last one names
    # a join), not transitive; the keys are then the whole up- and down-sets
    rng = random.Random(90)
    seen = set()
    for trial in range(120):
        n = rng.randint(2, 9)
        rel = np.array([[rng.random() < 0.45 for _ in range(n)] for _ in range(n)])
        if trial % 3:
            np.fill_diagonal(rel, True)
        if trial % 4 == 0:
            rel[1] = rel[0]
            rel[:, 1] = rel[:, 0]
        poset = Poset.from_matrix(rel, check=False)
        seen.add((poset.is_partial_order, len(set(poset.up)) < n))
        if not poset.is_partial_order:
            assert poset.join_irreducibles == tuple(range(n))
        assert_lattice_by_masks(poset)
    assert (False, True) in seen and (False, False) in seen


def test_order_tables_larger_than_memory_are_refused_before_allocating(monkeypatch):
    alg = chain_dq(6)
    assert alg.size == 924
    cells = 924 * 924
    poset = Poset.from_matrix(alg.leq, check=False)
    poset.lower_covers
    # join and meet tables: 8 bytes a pair
    monkeypatch.setattr(qra.order, "_physical_memory", lambda: 8 * cells - 1)
    with pytest.raises(PreconditionError, match="join and meet tables of 924 elements"):
        poset.lattice
    with pytest.raises(PreconditionError, match="physical memory"):
        FinAlgebra(alg.leq, alg.product, alg.one, alg.tilde, alg.minus).join_table
    # the cover step: 12 bytes a pair
    monkeypatch.setattr(qra.order, "_physical_memory", lambda: 12 * cells - 1)
    with pytest.raises(PreconditionError, match="cover relation of 924 elements"):
        Poset.from_matrix(alg.leq, check=False).covers
    monkeypatch.setattr(qra.order, "_physical_memory", lambda: 12 * cells)
    assert Poset.from_matrix(alg.leq, check=False).lattice.bottom == alg.bottom
