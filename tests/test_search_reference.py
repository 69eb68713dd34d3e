"""The frame search's kernel against plain-loop references.

``reference_cut`` is the interval test written as loops over (x, y, z):
a node is cut when some value is forced into (x o y) o z that x o (y o z)
can no longer take, or the other way round.  ``reference_propagate`` closes
under the rotation law, monotonicity in all three slots and both sides of
the identity law.  The kernel keeps one half of the cut, monotonicity in
the value slot and one side of the identity law, which the rotation law
makes equivalent on the rotation-closed states it works on.  It must give
the same verdicts and fixpoints as the references on every state the DFS
hands it and on random rotation-closed states, and the census search must
visit the recorded number of nodes.

``reference_orbit_minimal`` compares a whole relabelled encoding with its
own under every poset automorphism, where the search skips the branches
an automorphism makes smaller and checks the rest over their
stabilisers; both must keep the same encodings.  ``reference_neg_compatible``
tests the negation condition bit by bit over all n**3 triples, where the
kernel relabels whole cells; both must give the same verdicts.
"""

import random

import pytest

from qra.order import Poset, bits, posets_with_at_most_upsets
from qra.search import (
    SIGNATURES,
    SearchStats,
    _branch_stabiliser,
    _BranchSearch,
    _neg_compatible,
    run_branch,
    search_branches,
    search_frames,
)

# (nodes, prunes, leaves, labelled, DInFL frames, DqRA frames) of
# search_frames on every poset with at most 8 up-sets, keyed by its up-set
# masks; labelled is the leaves a search of every branch would count
CENSUS_SEARCH = {
    (1,): (1, 0, 1, 1, 1, 1),
    (1, 2): (7, 0, 5, 9, 5, 6),
    (3, 2): (2, 0, 2, 2, 2, 2),
    (1, 2, 4): (75, 13, 34, 130, 25, 31),
    (5, 6, 4): (0, 0, 0, 0, 0, 0),
    (5, 2, 4): (20, 5, 10, 10, 10, 10),
    (7, 2, 4): (0, 0, 0, 0, 0, 0),
    (7, 6, 4): (9, 4, 4, 4, 4, 4),
    (13, 6, 4, 8): (64, 24, 22, 22, 22, 22),
    (13, 14, 4, 8): (26, 7, 11, 42, 11, 12),
    (13, 14, 12, 8): (0, 0, 0, 0, 0, 0),
    (13, 10, 12, 8): (0, 0, 0, 0, 0, 0),
    (13, 2, 12, 8): (68, 25, 25, 25, 25, 25),
    (15, 10, 12, 8): (46, 15, 19, 25, 16, 23),
    (15, 10, 4, 8): (0, 0, 0, 0, 0, 0),
    (15, 14, 4, 8): (0, 0, 0, 0, 0, 0),
    (15, 14, 12, 8): (23, 11, 8, 8, 8, 8),
    (29, 30, 20, 24, 16): (0, 0, 0, 0, 0, 0),
    (29, 30, 28, 8, 16): (83, 47, 21, 80, 21, 23),
    (29, 30, 28, 24, 16): (0, 0, 0, 0, 0, 0),
    (29, 26, 28, 24, 16): (0, 0, 0, 0, 0, 0),
    (31, 26, 28, 8, 16): (0, 0, 0, 0, 0, 0),
    (31, 26, 28, 24, 16): (0, 0, 0, 0, 0, 0),
    (31, 26, 20, 24, 16): (103, 54, 28, 28, 28, 26),
    (31, 30, 20, 24, 16): (0, 0, 0, 0, 0, 0),
    (31, 30, 20, 8, 16): (0, 0, 0, 0, 0, 0),
    (31, 30, 28, 8, 16): (0, 0, 0, 0, 0, 0),
    (31, 30, 28, 24, 16): (63, 34, 17, 17, 17, 17),
    (61, 62, 60, 56, 48, 32): (0, 0, 0, 0, 0, 0),
    (63, 58, 60, 56, 48, 32): (0, 0, 0, 0, 0, 0),
    (63, 62, 52, 56, 48, 32): (349, 172, 94, 104, 70, 106),
    (63, 62, 60, 40, 48, 32): (0, 0, 0, 0, 0, 0),
    (63, 62, 60, 56, 16, 32): (0, 0, 0, 0, 0, 0),
    (63, 62, 60, 56, 48, 32): (155, 85, 38, 38, 38, 36),
    (127, 126, 124, 120, 112, 96, 64): (401, 226, 91, 91, 91, 81),
}


def reference_cut(t, f, carrier, n) -> bool:
    """True when the node survives the interval test on the tables t, f."""
    poss = [[carrier & ~cell for cell in row] for row in f]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lo_l = hi_l = lo_r = hi_r = 0
                for u in bits(t[x][y]):
                    lo_l |= t[u][z]
                for u in bits(poss[x][y]):
                    hi_l |= poss[u][z]
                for v in bits(t[y][z]):
                    lo_r |= t[x][v]
                for v in bits(poss[y][z]):
                    hi_r |= poss[x][v]
                if lo_l & ~hi_r or lo_r & ~hi_l:
                    return False
    return True


def closure(triples, step) -> set:
    """The triples (x, y, z), read 'z in x o y', closed under the map step."""
    closed, stack = set(), list(triples)
    while stack:
        triple = stack.pop()
        if triple not in closed:
            closed.add(triple)
            stack.append(step(*triple))
    return closed


def rotation_closure(triples, minus) -> set:
    """The triples closed under the rotation (x, y, z) -> (z-, x, y-)."""
    return closure(triples, lambda x, y, z: (minus[z], x, minus[y]))


def table_of(triples, n):
    table = [[0] * n for _ in range(n)]
    for x, y, z in triples:
        table[x][y] |= 1 << z
    return table


def to_bits(table, n):
    """An n x n table of cell masks as the kernel's one int: bit
    (x*n + y)*n + z for z in x o y."""
    return sum(cell << (x * n + y) * n for x, row in enumerate(table) for y, cell in enumerate(row))


def to_cells(table, n):
    """The kernel's one-int table as an n x n table of cell masks."""
    return [[(table >> (x * n + y) * n) & ((1 << n) - 1) for y in range(n)] for x in range(n)]


def random_rotation_closed(rng, n, minus, rate):
    triples = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)
               if rng.random() < rate]
    return rotation_closure(triples, minus)


def random_tilde(rng, n):
    tilde = list(range(n))
    rng.shuffle(tilde)
    return tilde, [tilde.index(i) for i in range(n)]


def test_rotation_turns_one_bracketing_into_the_other():
    rng = random.Random(5)
    for n in range(1, 8):
        for _ in range(12):
            _, minus = random_tilde(rng, n)
            a = table_of(random_rotation_closed(rng, n, minus, rng.random() * 0.3), n)
            # left[x][y][z], right[x][y][z]: the masks of w
            left = [[[0] * n for _ in range(n)] for _ in range(n)]
            right = [[[0] * n for _ in range(n)] for _ in range(n)]
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        for u in bits(a[x][y]):
                            left[x][y][z] |= a[u][z]
                        for v in bits(a[y][z]):
                            right[x][y][z] |= a[x][v]
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        for w in range(n):
                            mw, mz = minus[w], minus[z]
                            assert (left[x][y][z] >> w) & 1 == (right[mw][x][y] >> mz) & 1
                            assert (right[x][y][z] >> w) & 1 == (left[mw][x][y] >> mz) & 1


def reference_assign(poset, minus, t, f, x, y, z, value) -> bool:
    """Set one bit and close t and f in place under the rotation law and
    monotonicity in all three slots; False on a conflict."""
    stack = [(x, y, z)]
    table, other = (t, f) if value else (f, t)
    # true bits: down in both arguments, up in the value; false bits dually
    args, values = (poset.down, poset.up) if value else (poset.up, poset.down)
    while stack:
        a, b, c = stack.pop()
        if (other[a][b] >> c) & 1:
            return False
        if (table[a][b] >> c) & 1:
            continue
        table[a][b] |= 1 << c
        stack.append((minus[c], a, minus[b]))
        stack.extend((a2, b2, c2) for a2 in bits(args[a])
                     for b2 in bits(args[b]) for c2 in bits(values[c]))
    return True


def reference_witnesses(poset, identity, minus, t, f) -> bool:
    """Unit-propagate 'x in i o x' and 'x in x o i' for some identity
    point i, for every x; False on a conflict."""
    changed = True
    while changed:
        changed = False
        for x in range(poset.n):
            for cells in ([(i, x) for i in bits(identity)],
                          [(x, i) for i in bits(identity)]):
                if any((t[a][b] >> x) & 1 for a, b in cells):
                    continue
                open_ = [(a, b) for a, b in cells if not (f[a][b] >> x) & 1]
                if not open_:
                    return False
                if len(open_) == 1:
                    if not reference_assign(poset, minus, t, f, *open_[0], x, True):
                        return False
                    changed = True
    return True


def reference_propagate(poset, identity, minus, t, f, x, y, z, value) -> bool:
    return (reference_assign(poset, minus, t, f, x, y, z, value)
            and reference_witnesses(poset, identity, minus, t, f))


def reference_root(poset, identity, minus):
    """The tables once the cells i o x and x o i outside the principal
    upset of x are false and the witnesses propagated; None on a conflict."""
    n = poset.n
    t, f = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for i in bits(identity):
        for x in range(n):
            for y in bits(poset.carrier & ~poset.up[x]):
                for a, b in ((i, x), (x, i)):
                    if not reference_assign(poset, minus, t, f, a, b, y, False):
                        return None
    return (t, f) if reference_witnesses(poset, identity, minus, t, f) else None


def kernel_root(poset, identity, tilde):
    """The searcher and its tables as ``run`` hands them to the first cut;
    None when propagation failed before it."""
    searcher = _BranchSearch(poset, identity, tilde, SearchStats(), None)
    reached = []

    def stop():
        reached.append((to_cells(searcher.t, poset.n), to_cells(searcher.f, poset.n)))
        return False

    searcher._associativity_cut = stop
    searcher.run()
    return searcher, (reached[0] if reached else None)


def test_propagation_matches_reference_on_random_walks():
    rng = random.Random(17)
    verdicts = set()
    for poset in posets_with_at_most_upsets(8):
        n = poset.n
        for identity, tilde in search_branches(poset):
            searcher, root = kernel_root(poset, identity, tilde)
            minus = searcher.minus
            assert root == reference_root(poset, identity, minus), (poset.up, identity, tilde)
            if root is None:
                continue
            for _ in range(5):
                t, f = [row[:] for row in root[0]], [row[:] for row in root[1]]
                while True:
                    cells = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)
                             if not ((t[x][y] | f[x][y]) >> z) & 1]
                    if not cells:
                        break
                    x, y, z = rng.choice(cells)
                    value = rng.random() < 0.5
                    ref_t, ref_f = [row[:] for row in t], [row[:] for row in f]
                    ok = reference_propagate(poset, identity, minus, ref_t, ref_f, x, y, z, value)
                    searcher.t, searcher.f = to_bits(t, n), to_bits(f, n)
                    assert ok == (searcher._assign(x, y, z, value)
                                  and searcher._force_identity_witnesses())
                    verdicts.add(ok)
                    if ok:
                        assert searcher.t == to_bits(ref_t, n) and searcher.f == to_bits(ref_f, n)
                        t, f = ref_t, ref_f
    assert verdicts == {True, False}


def test_kernel_matches_reference_on_every_search_state(monkeypatch):
    kernel = _BranchSearch._associativity_cut
    verdicts = []

    def checked(searcher):
        ok = kernel(searcher)
        n = searcher.n
        assert ok == reference_cut(to_cells(searcher.t, n), to_cells(searcher.f, n),
                                   searcher.carrier, n)
        verdicts.append(ok)
        return ok

    monkeypatch.setattr(_BranchSearch, "_associativity_cut", checked)
    cuts = 0
    for poset in posets_with_at_most_upsets(8):
        cuts += search_frames(poset)["dinfl"].stats.cuts
    assert cuts == len(verdicts)
    assert True in verdicts and False in verdicts


def test_kernel_matches_reference_on_random_states():
    rng = random.Random(13)
    for n in range(1, 10):
        verdicts = set()
        for _ in range(120):
            tilde, minus = random_tilde(rng, n)
            searcher = _BranchSearch(Poset.antichain(n), 1, tilde, SearchStats(), None)
            # sparse to dense tables, so both verdicts occur past one point
            true = random_rotation_closed(rng, n, minus, rng.random() * 0.3)
            false = random_rotation_closed(rng, n, minus, rng.random() * 0.3) - true
            t, f = table_of(true, n), table_of(false, n)
            searcher.t, searcher.f = to_bits(t, n), to_bits(f, n)
            ok = searcher._associativity_cut()
            assert ok == reference_cut(t, f, searcher.carrier, n), (n, tilde, t, f)
            verdicts.add(ok)
        assert verdicts == ({True} if n == 1 else {True, False}), n
    # the last tables had 9**3 = 729 bits, several machine words
    assert searcher.n == 9


def test_census_search_counts_match_recorded_values():
    seen = {}
    for poset in posets_with_at_most_upsets(8):
        results = search_frames(poset)
        stats = results["dinfl"].stats
        seen[poset.up] = (stats.nodes, stats.prunes, stats.leaves, stats.labelled,
                          results["dinfl"].count, results["dqra"].count)
        # orbit-stabiliser: the labelled tables, and the labelled (table,
        # neg) pairs, are the orbits of the kept DInFL and DqRA encodings,
        # each of size |Aut(P)| / |Stab(encoding)|
        assert stats.labelled == sum(orbit_size(poset, enc)
                                     for enc in results["dinfl"].encodings)
        assert stats.labelled_dqra == sum(orbit_size(poset, enc)
                                          for enc in results["dqra"].encodings)
    assert seen == CENSUS_SEARCH


def flat(enc) -> tuple:
    """An encoding (identity, tilde, comp, neg) as one tuple, in the order
    its components are compared: identity, tilde, neg, then the cells."""
    identity, tilde, comp, neg = enc
    return (identity, *tilde, *(neg or ()), *(cell for row in comp for cell in row))


def relabelled(poset, g, enc) -> tuple:
    """``flat`` of the encoding transported along the automorphism g."""
    identity, tilde, comp, neg = enc
    n = poset.n
    inv = [g.index(x) for x in range(n)]

    def move(mask):
        return sum(1 << g[i] for i in bits(mask))

    return flat((move(identity), [g[tilde[inv[x]]] for x in range(n)],
                 [[move(comp[inv[x]][inv[y]]) for y in range(n)] for x in range(n)],
                 None if neg is None else [g[neg[inv[x]]] for x in range(n)]))


def orbit_size(poset, enc) -> int:
    """|Aut(P)| / |Stab(enc)|, the stabiliser counted over all of
    ``poset.automorphisms``."""
    return len(poset.automorphisms) // sum(relabelled(poset, g, enc) == flat(enc)
                                           for g in poset.automorphisms)


def reference_neg_compatible(comp, tilde, minus, neg, n) -> bool:
    """z- in x o y exactly when neg(z) in sigma(y) o sigma(x), with
    sigma = neg o tilde, for every triple (x, y, z)."""
    for x in range(n):
        tx = neg[tilde[x]]
        for y in range(n):
            cell = comp[x][y]
            twisted = comp[neg[tilde[y]]][tx]
            for z in range(n):
                if ((cell >> minus[z]) & 1) != ((twisted >> neg[z]) & 1):
                    return False
    return True


def test_neg_filter_matches_reference_on_every_solved_table():
    verdicts = set()
    for poset in posets_with_at_most_upsets(8):
        for identity, tilde in search_branches(poset):
            minus = [tilde.index(i) for i in range(poset.n)]
            for comp in _BranchSearch(poset, identity, tilde, SearchStats(), None).run():
                for neg in poset.order_reversing_involutions:
                    ok = _neg_compatible(comp, tilde, neg)
                    assert ok == reference_neg_compatible(comp, tilde, minus, neg, poset.n)
                    verdicts.add(ok)
    assert verdicts == {True, False}


def test_neg_filter_matches_reference_on_random_tables():
    rng = random.Random(23)
    for n in range(1, 10):
        verdicts = set()
        for _ in range(60):
            tilde, minus = random_tilde(rng, n)
            neg = rng.sample(range(n), n)
            sigma = [neg[t] for t in tilde]
            # closed under (x, y, z) -> (sigma y, sigma x, sigma z), so the
            # table passes; one flipped triple may break that
            triples = closure([(x, y, z) for x in range(n) for y in range(n)
                               for z in range(n) if rng.random() < 0.2],
                              lambda x, y, z: (sigma[y], sigma[x], sigma[z]))
            if rng.random() < 0.5:
                triples ^= {(rng.randrange(n), rng.randrange(n), rng.randrange(n))}
            comp = table_of(triples, n)
            ok = _neg_compatible(comp, tilde, neg)
            assert ok == reference_neg_compatible(comp, tilde, minus, neg, n), (n, tilde, neg)
            verdicts.add(ok)
        assert verdicts == ({True} if n == 1 else {True, False}), n


def reference_orbit_minimal(poset, enc) -> bool:
    """No automorphism of the poset, over all of ``poset.automorphisms``,
    relabels the whole encoding to a lexicographically smaller one."""
    return all(relabelled(poset, g, enc) >= flat(enc) for g in poset.automorphisms)


def reference_branch(poset, identity, tilde):
    """The solved tables of a branch, searched whether or not the census
    skips it, the (table, neg) pairs among them that the reference negation
    check passes, and the encodings that the reference orbit check keeps,
    for each signature."""
    comps = _BranchSearch(poset, identity, tilde, SearchStats(), None).run()
    minus = [tilde.index(i) for i in range(poset.n)]
    pairs = [(comp, neg) for comp in comps for neg in poset.order_reversing_involutions
             if reference_neg_compatible(comp, tilde, minus, neg, poset.n)]
    dinfl = [(identity, tilde, comp, None) for comp in comps
             if reference_orbit_minimal(poset, (identity, tilde, comp, None))]
    dqra = [(identity, tilde, comp, neg) for comp, neg in pairs
            if reference_orbit_minimal(poset, (identity, tilde, comp, neg))]
    return comps, pairs, dinfl, dqra


def test_skipped_branches_hold_no_orbit_minimal_encoding():
    # lemma (i) of qra.search: every table of a skipped branch fails the
    # orbit check over all automorphisms, for both signatures; and lemma
    # (ii): on a searched branch the check over the stabiliser keeps what
    # the check over all automorphisms keeps
    skipped = solved = 0
    for poset in posets_with_at_most_upsets(8):
        for identity, tilde in search_branches(poset):
            comps, _, dinfl, dqra = reference_branch(poset, identity, tilde)
            if _branch_stabiliser(poset, identity, tilde) is None:
                skipped += 1
                solved += len(comps)
                assert not dinfl and not dqra, (poset.up, identity, tilde)
            else:
                assert run_branch(poset, SIGNATURES, identity, tilde) == (dinfl, dqra)
    # 71 of the 178 branches, holding 206 of the 636 labelled tables
    assert (skipped, solved) == (71, 206)


@pytest.mark.stretch
def test_branch_orbits_match_the_search_of_every_branch_past_eight_upsets():
    for poset in posets_with_at_most_upsets(10):
        leaves = labelled_pairs = 0
        want = {"dinfl": [], "dqra": []}
        for identity, tilde in search_branches(poset):
            comps, pairs, dinfl, dqra = reference_branch(poset, identity, tilde)
            leaves += len(comps)
            labelled_pairs += len(pairs)
            want["dinfl"] += dinfl
            want["dqra"] += dqra
        results = search_frames(poset)
        assert results["dinfl"].stats.labelled == leaves, poset.up
        assert results["dqra"].stats.labelled_dqra == labelled_pairs, poset.up
        for signature in SIGNATURES:
            # sorted as search_frames sorts
            assert results[signature].encodings == sorted(
                want[signature], key=lambda e: (e[0], e[1], e[2], e[3] or ())), poset.up
