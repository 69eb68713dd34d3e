"""The frame search's associativity cut against a plain-loop reference.

``reference_cut`` is the interval test written as loops over (x, y, z):
a node is cut when some value is forced into (x o y) o z that x o (y o z)
can no longer take, or the other way round.  The search's kernel must
give the same verdict on every state the DFS hands it and on random
states, and the census search must visit the recorded number of nodes.
"""

import random

from qra.order import Poset, bits, posets_with_at_most_upsets
from qra.search import SearchStats, _BranchSearch, search_frames

# (nodes, prunes, leaves, DInFL frames, DqRA frames) of search_frames on
# every poset with at most 8 up-sets, keyed by its up-set masks
CENSUS_SEARCH = {
    (1,): (1, 0, 1, 1, 1),
    (1, 2): (13, 0, 9, 5, 6),
    (3, 2): (2, 0, 2, 2, 2),
    (1, 2, 4): (300, 62, 130, 25, 31),
    (5, 6, 4): (0, 0, 0, 0, 0),
    (5, 2, 4): (20, 5, 10, 10, 10),
    (7, 2, 4): (0, 0, 0, 0, 0),
    (7, 6, 4): (9, 4, 4, 4, 4),
    (13, 6, 4, 8): (64, 24, 22, 22, 22),
    (13, 14, 4, 8): (100, 26, 42, 11, 12),
    (13, 14, 12, 8): (0, 0, 0, 0, 0),
    (13, 10, 12, 8): (0, 0, 0, 0, 0),
    (13, 2, 12, 8): (68, 25, 25, 25, 25),
    (15, 10, 12, 8): (64, 23, 25, 16, 23),
    (15, 10, 4, 8): (0, 0, 0, 0, 0),
    (15, 14, 4, 8): (0, 0, 0, 0, 0),
    (15, 14, 12, 8): (23, 11, 8, 8, 8),
    (29, 30, 20, 24, 16): (0, 0, 0, 0, 0),
    (29, 30, 28, 8, 16): (286, 142, 80, 21, 23),
    (29, 30, 28, 24, 16): (0, 0, 0, 0, 0),
    (29, 26, 28, 24, 16): (0, 0, 0, 0, 0),
    (31, 26, 28, 8, 16): (0, 0, 0, 0, 0),
    (31, 26, 28, 24, 16): (0, 0, 0, 0, 0),
    (31, 26, 20, 24, 16): (103, 54, 28, 28, 26),
    (31, 30, 20, 24, 16): (0, 0, 0, 0, 0),
    (31, 30, 20, 8, 16): (0, 0, 0, 0, 0),
    (31, 30, 28, 8, 16): (0, 0, 0, 0, 0),
    (31, 30, 28, 24, 16): (63, 34, 17, 17, 17),
    (61, 62, 60, 56, 48, 32): (0, 0, 0, 0, 0),
    (63, 58, 60, 56, 48, 32): (0, 0, 0, 0, 0),
    (63, 62, 52, 56, 48, 32): (401, 206, 104, 70, 106),
    (63, 62, 60, 40, 48, 32): (0, 0, 0, 0, 0),
    (63, 62, 60, 56, 16, 32): (0, 0, 0, 0, 0),
    (63, 62, 60, 56, 48, 32): (155, 85, 38, 38, 36),
    (127, 126, 124, 120, 112, 96, 64): (401, 226, 91, 91, 81),
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


def test_kernel_matches_reference_on_every_search_state(monkeypatch):
    kernel = _BranchSearch._associativity_cut
    verdicts = []

    def checked(searcher):
        ok = kernel(searcher)
        assert ok == reference_cut(searcher.t, searcher.f, searcher.carrier, searcher.n)
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
        searcher = _BranchSearch(Poset.antichain(n), 1, range(n), SearchStats(), None)
        full = searcher.carrier
        verdicts = set()
        for _ in range(120):
            # sparse to dense tables, so both verdicts occur past one point
            t_rate, f_rate = rng.random() * 0.6, rng.random() * 0.6
            t = [[sum(1 << w for w in range(n) if rng.random() < t_rate)
                  for _ in range(n)] for _ in range(n)]
            f = [[sum(1 << w for w in range(n) if rng.random() < f_rate) & full & ~cell
                  for cell in row] for row in t]
            searcher.t, searcher.f = t, f
            ok = searcher._associativity_cut()
            assert ok == reference_cut(t, f, full, n), (n, t, f)
            verdicts.add(ok)
        assert verdicts == ({True} if n == 1 else {True, False}), n
    assert searcher.cell_bytes == 2


def test_census_search_counts_match_recorded_values():
    seen = {}
    for poset in posets_with_at_most_upsets(8):
        results = search_frames(poset)
        stats = results["dinfl"].stats
        seen[poset.up] = (stats.nodes, stats.prunes, stats.leaves,
                          results["dinfl"].count, results["dqra"].count)
    assert seen == CENSUS_SEARCH
