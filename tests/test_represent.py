import dataclasses
import itertools
import sys
import threading
import time

import numpy as np
import pytest

from qra import (
    AlgHom,
    ExhaustionReport,
    RepBase,
    RepresentationCertificate,
    SearchOptions,
    build_dq,
    check_complement_shift,
    classify,
    complex_algebra,
    embed_search,
    no_finite_rep_filter,
    one_point_base,
    representation_search,
    twist_order,
    validate_dinfl,
    validate_dqra,
    validate_frame,
    validate_homomorphism,
    verify_certificate,
)
import qra.frame
import qra.order
import qra.represent
from qra import io as qio
from qra.catalog import build_catalog, catalog_lookup
from qra.cli import main
from qra.errors import BudgetExhausted, PreconditionError, SignatureError, StructuralError
from qra.order import BLOCK_CELLS, Poset, bits, mask_of
from qra.represent import dq_frame, dq_zero_relation, iterate_bases


def chain2_base():
    return RepBase(Poset.chain(2), (0b11, 0b11), (0, 1), (1, 0))


def test_base_validation_rejects_bad_data():
    with pytest.raises(StructuralError):
        RepBase(Poset.chain(2), (0b01, 0b10), (0, 1), None)  # order not in E
    with pytest.raises(StructuralError):
        RepBase(Poset.chain(2), (0b11, 0b11), (1, 0), None)  # alpha not monotone
    with pytest.raises(StructuralError):
        RepBase(Poset.chain(2), (0b11, 0b11), (0, 1), (0, 1))  # beta not antitone


@pytest.mark.parametrize("poset, equiv, alpha, beta, message", [
    (Poset.antichain(2), (0b11,), (0, 1), None, "equivalence table has wrong length"),
    (Poset.antichain(2), (0b10, 0b10), (0, 1), None, "equivalence not reflexive"),
    (Poset.antichain(2), (0b01, 0b11), (0, 1), None, "equivalence classes inconsistent"),
    (Poset.antichain(2), (0b11, 0b11), (0, 0), None, "alpha is not a permutation"),
    (Poset.antichain(2), (0b01, 0b10), (1, 0), None, "alpha leaves an equivalence class"),
    (Poset.antichain(2), (0b11, 0b11), (0, 1), (0, 0), "beta is not a permutation"),
    (Poset.antichain(3), (0b111,) * 3, (0, 1, 2), (1, 2, 0), "beta is not self-inverse"),
    (Poset.antichain(2), (0b01, 0b10), (0, 1), (1, 0), "beta leaves an equivalence class"),
    (Poset.antichain(3), (0b111,) * 3, (1, 0, 2), (0, 2, 1),
     "beta does not equal its alpha conjugate"),
])
def test_base_check_names_its_one_defect(poset, equiv, alpha, beta, message):
    with pytest.raises(StructuralError, match=f"^{message}$"):
        RepBase(poset, equiv, alpha, beta)


def test_twist_order_examples():
    pairs, tw = twist_order(one_point_base())
    assert pairs == [(0, 0)] and tw.n == 1
    pairs, tw = twist_order(chain2_base())
    assert len(pairs) == 4
    idx = {p: i for i, p in enumerate(pairs)}
    bottom = idx[(1, 0)]
    top = idx[(0, 1)]
    assert tw.up[bottom] == tw.carrier  # (y,x) is the minimum
    assert tw.up[top] == 1 << top  # (x,y) is the maximum
    for diag in ((0, 0), (1, 1)):
        mask = tw.up[idx[diag]]
        assert mask & (mask - 1) and mask != tw.carrier  # incomparable middle
    # discrete base: four pairwise incomparable pairs
    base = RepBase(Poset.antichain(2), (0b11, 0b11), (0, 1), (0, 1))
    pairs, tw = twist_order(base)
    assert all(tw.up[i] == 1 << i for i in range(4))


def test_build_dq_examples():
    dq = build_dq(one_point_base())
    assert dq.algebra.size == 2
    assert validate_dqra(dq.algebra).ok
    dq6 = build_dq(chain2_base())
    alg = dq6.algebra
    assert alg.size == 6
    assert validate_dqra(alg).ok
    # the unit (the order relation) is a coatom of the carrier lattice
    assert bool(alg.order_poset.lower_covers[alg.top] >> alg.one & 1)
    assert dq6.relation_masks[alg.zero] == dq_zero_relation(dq6)


def _reference_dq(base):
    """Dq(E) from the definitions: (relations, leq, product, one, tilde,
    minus, neg) with tables indexed by position in ``relations``.

    Relations are frozensets of pairs; the carrier is every set of E-pairs
    that is upward closed in the twisted order.  The product composes row
    by row: row x of R;S is the union of the rows z of S over z in row x of R.
    """
    n = base.points
    up, down = base.poset.up, base.poset.down
    pairs = [(x, y) for x in range(n) for y in bits(base.equiv[x])]
    everything = frozenset(pairs)
    choices, relations = [], []
    for choice in range(1 << len(pairs)):
        rel = frozenset(pairs[i] for i in bits(choice))
        if all((x, y) in rel for (u, v) in rel
               for x in bits(down[u]) for y in bits(up[v])):
            choices.append(choice)
            relations.append(rel)
    choices = np.array(choices)
    leq = (choices[:, None] & ~choices[None, :]) == 0

    def rows(rel):
        return [mask_of(y for (x2, y) in rel if x2 == x) for x in range(n)]

    def images(rel):  # images[z_mask] = the union of the rows z in z_mask
        row = rows(rel)
        out = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            out[mask] = out[mask ^ low] | row[low.bit_length() - 1]
        return out

    def compose(r, s):
        return frozenset((x, y) for (x, z) in r for (z2, y) in s if z == z2)

    def converse(r):
        return frozenset((y, x) for (x, y) in r)

    def graph(perm):
        return frozenset((x, perm[x]) for x in range(n))

    position = {r: i for i, r in enumerate(relations)}
    # a relation coded as its rows side by side, n bits each
    by_code = np.full(1 << (n * n), -1)
    for i, r in enumerate(relations):
        by_code[sum(row << (n * x) for x, row in enumerate(rows(r)))] = i
    right = np.array([images(s) for s in relations])
    product = np.array([by_code[sum(right[:, row] << (n * x) for x, row in enumerate(rows(r)))]
                        for r in relations])
    one = position[frozenset((x, y) for (x, y) in pairs if base.poset.leq(x, y))]
    alpha = graph(base.alpha)
    tilde = [position[compose(converse(everything - r), alpha)] for r in relations]
    minus = [position[compose(alpha, converse(everything - r))] for r in relations]
    neg = None
    if base.beta is not None:
        beta = graph(base.beta)
        neg = [position[compose(compose(compose(alpha, beta), everything - r), beta)]
               for r in relations]
    return relations, leq, product, one, tilde, minus, neg


def _small_bases():
    cap = qra.represent.SEARCH_UPSET_CAP
    for need_beta in (True, False):
        for base in iterate_bases(3, need_beta, SearchOptions()):
            if twist_order(base)[1].count_upsets(cap) <= cap:
                yield base


@pytest.mark.parametrize("need_beta", [True, False])
def test_iterate_bases_yields_each_base_once(need_beta):
    keys = [(b.poset.up, b.equiv, b.alpha, b.beta)
            for b in iterate_bases(3, need_beta, SearchOptions())]
    assert len(keys) == len(set(keys))
    assert [len(k[0]) for k in keys] == sorted(len(k[0]) for k in keys)


def test_equivalences_containing_lists_every_equivalence_over_the_order():
    # brute force: label the points every way, keep the labellings whose
    # classes contain every comparable pair, finest first, then by table
    for poset in qra.order.all_posets(4):
        n = poset.n
        found = set()
        for labels in itertools.product(range(n), repeat=n):
            eq = tuple(mask_of(j for j in range(n) if labels[j] == labels[i])
                       for i in range(n))
            if all(poset.up[i] & ~eq[i] == 0 for i in range(n)):
                found.add(eq)
        want = sorted(found, key=lambda eq: (-len(set(eq)), eq))
        assert qra.represent._equivalences_containing(poset) == want, poset


def _bases_by_definition(poset, need_beta):
    """Every base on the poset, as (up, equiv, alpha, beta), by brute force:
    the set partitions whose classes are unions of comparability components,
    the order automorphisms that keep each point in its E-class, and the
    self-inverse dual order automorphisms that do too and equal their
    alpha-conjugate."""
    n, leq = poset.n, poset.leq
    pairs = list(itertools.product(range(n), repeat=2))
    found = set()
    for labels in itertools.product(range(n), repeat=n):
        eq = tuple(mask_of(j for j in range(n) if labels[j] == labels[i]) for i in range(n))
        if any(poset.up[i] & ~eq[i] for i in range(n)):
            continue
        inside = [g for g in itertools.permutations(range(n))
                  if all((eq[i] >> g[i]) & 1 for i in range(n))]
        for alpha in inside:
            if any(leq(i, j) != leq(alpha[i], alpha[j]) for i, j in pairs):
                continue
            betas = [g for g in inside
                     if all(g[g[i]] == i and alpha[g[alpha[i]]] == g[i] for i in range(n))
                     and all(leq(i, j) == leq(g[j], g[i]) for i, j in pairs)]
            for beta in betas if need_beta else [None]:
                found.add((poset.up, eq, alpha, beta))
    return found


@pytest.mark.parametrize("need_beta, count", [(True, 304), (False, 144)])
def test_the_flags_filter_the_one_walk_of_every_base(need_beta, count):
    # the walk lists every base on at most 4 points, and each flag keeps, in
    # the walk's order, exactly the bases that meet its predicate
    every = set().union(*(_bases_by_definition(poset, need_beta)
                          for poset in qra.order.all_posets(4)))
    walk = _walk(4, need_beta, SearchOptions())
    assert len(walk) == len(set(walk)) == count and set(walk) == every

    def meets(key, e, a):
        full_e = key[1] == ((1 << len(key[0])) - 1,) * len(key[0])
        alpha_id = key[2] == tuple(range(len(key[0])))
        return (full_e or not e) and (alpha_id or not a)

    for e, a in [(True, False), (False, True), (True, True)]:
        flagged = _walk(4, need_beta, SearchOptions(full_e_only=e, alpha_id_only=a))
        assert set(flagged) == {key for key in every if meets(key, e, a)}
        assert flagged == [key for key in walk if meets(key, e, a)]


def test_build_dq_matches_the_definitions_on_all_small_bases():
    # both sides of the duality on every base the search lists at 3 points:
    # the frame laws of dq_frame, which is all verify_certificate checks of
    # the target, and the algebra laws of the Dq(E) built from it
    bases = list(_small_bases())
    assert len(bases) == 64
    assert sum(base.beta is not None for base in bases) == 39
    for base in bases:
        assert validate_frame(dq_frame(base)).ok
        dq = build_dq(base)
        alg = dq.algebra
        assert (validate_dqra(alg) if base.beta is not None else validate_dinfl(alg)).ok
        relations, leq, product, one, tilde, minus, neg = _reference_dq(base)
        # dq element i is the relation relation_masks[i]; ref[i] is its
        # position among the reference relations
        position = {r: i for i, r in enumerate(relations)}
        ref = np.array([position[frozenset(dq.pairs[b] for b in bits(m))]
                        for m in dq.relation_masks])
        assert sorted(ref.tolist()) == list(range(len(relations)))
        assert ref[alg.one] == one
        assert (ref[alg.tilde] == np.array(tilde)[ref]).all()
        assert (ref[alg.minus] == np.array(minus)[ref]).all()
        if neg is None:
            assert alg.neg is None
        else:
            assert (ref[alg.neg] == np.array(neg)[ref]).all()
        assert (alg.leq == leq[np.ix_(ref, ref)]).all()
        assert (ref[alg.product] == product[np.ix_(ref, ref)]).all()


def test_build_dq_cap():
    with pytest.raises(PreconditionError):
        build_dq(chain2_base(), cap=3)


def test_an_upset_algebra_larger_than_memory_is_refused_before_allocating(
        monkeypatch, tmp_path, capsys):
    # the 4-point antichain with full E: 16 pairs and exactly the default cap
    # of 65,536 upsets, whose product table alone would take 32 GiB
    monkeypatch.setattr(qra.order, "_physical_memory", lambda: 8 << 30)
    poset = Poset.antichain(4)
    base = RepBase(poset, (poset.carrier,) * 4, range(4), range(4))
    assert dq_frame(base).poset.count_upsets(cap=1 << 16) == 1 << 16
    with pytest.raises(PreconditionError, match="physical memory is 8.0 GiB"):
        build_dq(base)
    with pytest.raises(PreconditionError, match="physical memory"):
        complex_algebra(dq_frame(base))
    path = tmp_path / "dq.frame.json"
    qio.save(dq_frame(base), path)
    assert main(["complex", str(path)]) == 2
    assert "physical memory" in capsys.readouterr().err


def test_cyclic_iff_alpha_identity():
    swap_base = RepBase(Poset.antichain(2), (0b11, 0b11), (1, 0), (0, 1))
    assert not classify(build_dq(swap_base).algebra).cyclic
    assert classify(build_dq(chain2_base()).algebra).cyclic


def test_dinfl_only_when_beta_absent():
    base = RepBase(Poset.chain(2), (0b11, 0b11), (0, 1), None)
    alg = build_dq(base).algebra
    assert alg.neg is None
    assert validate_dinfl(alg).ok


def test_complement_shift_identities_exhaustive_small():
    base = chain2_base()
    k = len(base.pairs)
    composites = [base.alpha, base.beta,
                  tuple(base.alpha[base.beta[i]] for i in range(2))]
    for gamma in composites:
        for rel in range(1 << k):
            left, right = check_complement_shift(base, gamma, rel)
            assert left and right


def test_complement_shift_requires_bijection_graph():
    base = chain2_base()
    with pytest.raises(PreconditionError):
        # identity on a single point is not a bijection graph on both points
        check_complement_shift(base, (0, 0), 0)


def test_embed_search_trivial_cases(bool2):
    dq = build_dq(one_point_base())
    hom = embed_search(bool2, dq.algebra)
    assert hom is not None and hom.is_injective()
    alg = build_dq(chain2_base()).algebra
    self_hom = embed_search(alg, alg)
    assert self_hom is not None and sorted(self_hom.map) == list(range(alg.size))


def test_embed_search_node_budget(sugihara3):
    alg = build_dq(chain2_base()).algebra
    found = embed_search(alg, alg)
    needed = 1
    while True:
        try:
            bounded = embed_search(alg, alg, budget=needed)
            break
        except BudgetExhausted:
            needed += 1
    # every smaller budget stops the search, the root counts as a node, and
    # the first sufficient budget finds the same map as the default one
    assert needed > 2
    assert bounded.map == found.map
    for budget in range(needed):
        with pytest.raises(BudgetExhausted):
            embed_search(alg, alg, budget=budget)
    # a search that finds nothing says so only after its last node
    assert embed_search(sugihara3, alg) is None
    with pytest.raises(BudgetExhausted):
        embed_search(sugihara3, alg, budget=2)


def test_embed_search_matches_brute_force(sugihara3):
    target = build_dq(chain2_base()).algebra
    found = embed_search(sugihara3, target)
    brute = [
        image
        for image in itertools.product(range(target.size), repeat=3)
        if len(set(image)) == 3
        and validate_homomorphism(
            AlgHom(source=sugihara3, target=target, map=image)
        ).ok
    ]
    assert (found is not None) == bool(brute)
    if found is not None:
        assert tuple(found.map) in brute


@pytest.mark.parametrize("max_points", [0, -1])
def test_representation_search_needs_a_point(bool2, max_points):
    with pytest.raises(PreconditionError, match="at least 1"):
        representation_search(bool2, max_points)


def test_a_search_certifying_at_one_point_grows_no_larger_poset(cold_memo, monkeypatch):
    grown = []
    grow_layer = qra.order._grow_layer

    def spy(smaller, n, cap):
        grown.append(n)
        return grow_layer(smaller, n, cap)

    monkeypatch.setattr(qra.order, "_grow_layer", spy)
    alg = catalog_lookup("D2_1_1").variants[0].algebra
    result = representation_search(alg, 8)
    assert isinstance(result, RepresentationCertificate)
    assert result.base.points == 1
    assert grown == []
    # the spy sees the growth once a search goes past one point
    list(iterate_bases(3, True, SearchOptions()))
    assert grown == [2, 3]


def _catalog_algebras():
    return {v.algebra.name: v.algebra for e in build_catalog() for v in e.variants}


def _searches():
    """Every catalogue variant at 2 points, and two 3-point certificates."""
    algebras = _catalog_algebras()
    return ([(alg, 2) for alg in algebras.values()]
            + [(algebras[name], 3) for name in ("D4_2_3", "D6_4_2")])


def _cold(memo, alg, points, options=None):
    memo.clear()
    return repr(representation_search(alg, points, options))


def _kept(memo):
    """The memo's Dq(E)s by base, and its base lists by (points, need_beta)."""
    targets = {k: v for k, v in memo.entries.items() if isinstance(k, RepBase)}
    return targets, {k: v for k, v in memo.entries.items() if k not in targets}


def _assert_within(memo, cells):
    assert memo.cells == sum(map(memo.cost, memo.entries.values())) <= cells


def test_memo_gives_the_results_of_a_cold_search(cold_memo):
    searches = _searches()
    assert len(searches) == 74
    cold = [_cold(cold_memo, alg, points) for alg, points in searches]
    cold_memo.clear()
    for _ in range(2):
        assert [repr(representation_search(alg, points))
                for alg, points in searches] == cold


def test_memo_keeps_caps_and_option_lists_apart(cold_memo, monkeypatch):
    algebras = _catalog_algebras()
    # the bases of an algebra without neg have no beta
    algebras["D4_2_3-"] = algebras["D4_2_3"].without_neg()
    names = ["D2_1_1", "D4_1_3", "D4_2_3", "D6_4_2", "D4_2_3-"]
    sequence = [SearchOptions(), SearchOptions(full_e_only=True),
                SearchOptions(alpha_id_only=True),
                SearchOptions(full_e_only=True, alpha_id_only=True)]
    cold = {(name, i): _cold(cold_memo, algebras[name], 2, options)
            for name in names for i, options in enumerate(sequence)}
    with monkeypatch.context() as patched:
        patched.setattr(qra.represent, "SEARCH_UPSET_CAP", 8)
        capped = _cold(cold_memo, algebras["D4_2_3"], 2)
    assert capped != cold[("D4_2_3", 0)]  # the cap changes the report
    assert "bases_skipped_over_cap=0" not in capped
    cold_memo.clear()
    for name in names:
        for i, options in enumerate(sequence):
            assert repr(representation_search(algebras[name], 2, options)) == cold[(name, i)]


def test_memo_holds_at_most_block_cells(cold_memo, monkeypatch):
    built = []
    upset_algebra = qra.represent.upset_algebra

    def spy(frame, ups, name=None):
        built.append(len(ups))
        return upset_algebra(frame, ups, name)

    monkeypatch.setattr(qra.represent, "upset_algebra", spy)
    result = representation_search(_catalog_algebras()["D4_2_3"], 3)
    assert isinstance(result, RepresentationCertificate) and result.base.points == 3
    targets, _ = _kept(cold_memo)
    held = [t for t in targets.values() if t and "algebra" in t.__dict__]
    assert sum(t.algebra.size ** 2 for t in held) <= cold_memo.cells <= BLOCK_CELLS
    # the 3-antichain with one E-class: 9 pairs, every set of them an up-set
    assert 512 in built
    assert all(t is None or len(t.relation_masks) < 512 for t in targets.values())
    antichain = Poset.antichain(3)
    assert any(base.poset == antichain for base in targets)


def test_memo_evicts_the_least_recently_used_target(cold_memo, monkeypatch):
    searches = _searches()[::7]
    cold = [_cold(cold_memo, alg, points) for alg, points in searches]
    monkeypatch.setattr(qra.represent, "BLOCK_CELLS", 300)
    cold_memo.clear()
    for _ in range(2):
        for (alg, points), want in zip(searches, cold):
            assert repr(representation_search(alg, points)) == want
            _assert_within(cold_memo, 300)
    # a lookup makes its target the most recently used; a new target
    # pushes out the least recently used ones until the cells fit
    two_point = [b for b in iterate_bases(2, True, SearchOptions()) if b.points == 2]
    first, second, third = two_point[:3]
    cold_memo.clear()
    cells = [cold_memo.cost(qra.represent.DqAlgebra(b)) for b in (first, second, third)]
    monkeypatch.setattr(qra.represent, "BLOCK_CELLS", sum(cells) - 1)
    kept = cold_memo.target(first)
    cold_memo.target(second)
    assert cold_memo.target(first) is kept
    cold_memo.target(third)
    assert list(cold_memo.entries) == [first, third]
    assert cold_memo.cells == cells[0] + cells[2]
    assert cold_memo.target(first) is kept
    # base lists take their turn in the same order: the 1-point list, walked
    # last, outlives the 2-point list when a Dq(E) needs room
    cold_memo.clear()
    list(iterate_bases(2, True, SearchOptions()))
    list(iterate_bases(1, True, SearchOptions()))
    assert list(cold_memo.entries) == [(2, True), (1, True)] and cold_memo.cells == 7
    monkeypatch.setattr(qra.represent, "BLOCK_CELLS", 7 + cells[0] - 1)
    cold_memo.target(first)
    assert list(cold_memo.entries) == [(1, True), first]
    _assert_within(cold_memo, 7 + cells[0] - 1)


def test_threads_share_the_memo(cold_memo, monkeypatch):
    algebras = _catalog_algebras()
    searches = _searches()[::6] + [(algebras["D4_2_3"], 3)]
    cold = [_cold(cold_memo, alg, points) for alg, points in searches]
    cold_memo.clear()
    monkeypatch.setattr(qra.represent, "BLOCK_CELLS", 300)
    workers = 4
    found = [[None] * len(searches) for _ in range(workers)]

    def work(w):  # each worker starts at a different search
        for i in range(len(searches)):
            at = (i + 3 * w) % len(searches)
            alg, points = searches[at]
            found[w][at] = repr(representation_search(alg, points))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert found == [cold] * workers
    _assert_within(cold_memo, 300)


@pytest.mark.parametrize("options", [SearchOptions(full_e_only=True, embed_budget=100_000),
                                     SearchOptions(alpha_id_only=True, embed_budget=100_000)])
def test_memo_gives_the_results_of_a_cold_search_under_each_flag(cold_memo, options):
    # the smaller budget leaves D6_4_2 undecided on some 3-point bases
    searches = _searches()
    cold = [_cold(cold_memo, alg, points, options) for alg, points in searches]
    cold_memo.clear()
    for _ in range(2):
        assert [repr(representation_search(alg, points, options))
                for alg, points in searches] == cold


def _walk(max_points, need_beta, options):
    return [(b.poset.up, b.equiv, b.alpha, b.beta)
            for b in iterate_bases(max_points, need_beta, options)]


def test_kept_bases_are_listed_as_a_cold_walk_lists_them(cold_memo):
    flags = [SearchOptions(full_e_only=e, alpha_id_only=a)
             for e in (False, True) for a in (False, True)]
    for need_beta in (True, False):
        for options in flags:
            cold_memo.clear()
            cold = _walk(3, need_beta, options)
            # a warm walk, one that stops short of the kept point counts and
            # one that goes past them
            assert _walk(3, need_beta, options) == cold
            assert _walk(2, need_beta, options) == [k for k in cold if len(k[0]) <= 2]
            cold_memo.clear()
            _walk(2, need_beta, options)
            assert _walk(3, need_beta, options) == cold
            # the flags filter the bases of the one walk, which are kept whole
            unfiltered = _walk(3, need_beta, SearchOptions())
            assert len(cold_memo.entries[(3, need_beta)]) == sum(
                len(k[0]) == 3 for k in unfiltered)
    # the eight walks share the lists of the two without flags
    for need_beta in (True, False):
        for options in flags:
            _walk(3, need_beta, options)
    assert sorted(_kept(cold_memo)[1]) == [(k, b) for k in (1, 2, 3) for b in (False, True)]
    _assert_within(cold_memo, BLOCK_CELLS)
    # and hand out the bases they keep
    walked = list(iterate_bases(3, True, SearchOptions()))
    assert all(a is b for a, b in zip(walked, iterate_bases(3, True, SearchOptions())))
    handed_out = {id(b) for b in walked}
    for options in flags:
        assert all(id(b) in handed_out for b in iterate_bases(3, True, options))


@pytest.mark.parametrize("cells, points_kept", [(30, [1, 2]), (60, [2]), (300, [])])
def test_memo_keeps_bases_within_its_bound(cold_memo, monkeypatch, cells, points_kept):
    # 1 base on 1 point, 6 on 2 and 32 on 3, with beta, and Dq(E)s of 2, 4,
    # 6, 8 and 16 elements (4 to 256 cells) among them: at 30 cells the
    # 3-point bases never fit and are listed on every search that reaches
    # them; at 60 and 300 the Dq(E)s push the base lists out in their turn
    algebras = _catalog_algebras()
    searches = [(algebras[name], points) for name, points in (
        ("D2_1_1", 2), ("D4_1_3", 2), ("D4_2_3", 3), ("D6_4_2", 3), ("D4_2_3", 2))]
    cold = [_cold(cold_memo, alg, points) for alg, points in searches]
    listed = []
    poset_bases = qra.represent._poset_bases

    def spy(poset, need_beta):
        listed.append(poset.n)
        return poset_bases(poset, need_beta)

    monkeypatch.setattr(qra.represent, "_poset_bases", spy)
    monkeypatch.setattr(qra.represent, "BLOCK_CELLS", cells)
    cold_memo.clear()
    three_point_listings = []
    for _ in range(2):
        for (alg, points), want in zip(searches, cold):
            assert repr(representation_search(alg, points)) == want
            _assert_within(cold_memo, cells)
            assert cells > 30 or (3, True) not in cold_memo.entries
        three_point_listings.append(listed.count(3))
    assert sorted(_kept(cold_memo)[1]) == [(k, True) for k in points_kept]
    if cells == 30:  # a list over the bound is streamed, and listed again
        assert three_point_listings[1] == 2 * three_point_listings[0] > 0
    cold_memo.clear()
    assert (cold_memo.entries, cold_memo.cells) == ({}, 0)


def test_a_one_point_certificate_memoises_no_larger_base(cold_memo):
    alg = _catalog_algebras()["D2_1_1"]
    result = representation_search(alg, 8)
    assert isinstance(result, RepresentationCertificate) and result.base.points == 1
    targets, layers = _kept(cold_memo)
    assert all(base.points == 1 for base in targets) and list(layers) == [(1, True)]


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"the verifier {what}")
    return refuse


def test_certificates_are_verified_without_the_memo(cold_memo, monkeypatch):
    algebras = _catalog_algebras()
    certified = [(algebras[name], representation_search(algebras[name], 3))
                 for name in ("D2_1_1", "D4_2_3")]
    for alg, cert in certified:
        assert isinstance(cert, RepresentationCertificate)
        assert build_dq(cert.base).algebra.size == cert.carrier_size

    monkeypatch.setattr(qra.represent._Memo, "target", _refuse("read the search memo"))
    for module in (qra.frame, qra.represent):
        monkeypatch.setattr(module, "upset_algebra", _refuse("built an up-set algebra"))
    monkeypatch.setattr(qra.represent, "build_dq", _refuse("built Dq(E)"))
    for alg, cert in certified:
        assert verify_certificate(alg, cert)
        tampered = dataclasses.replace(cert, embedding=tuple(reversed(cert.embedding)))
        assert not verify_certificate(alg, tampered)


def test_a_certificate_of_another_signature_raises():
    alg = _catalog_algebras()["D2_1_1"]
    cert = representation_search(alg, 1)
    with pytest.raises(SignatureError):
        verify_certificate(alg.without_neg(), cert)
    with pytest.raises(SignatureError):
        verify_certificate(alg, dataclasses.replace(
            cert, base=dataclasses.replace(cert.base, beta=None)))


def test_a_certificate_over_the_upset_cap_raises_as_build_dq_does():
    # the 5-point antichain with E-classes {0,1,2,3} and {4}: 17 pairs in an
    # antichain, 2^17 up-sets
    poset = Poset.antichain(5)
    base = RepBase(poset, (0b1111,) * 4 + (0b10000,), range(5), range(5))
    with pytest.raises(PreconditionError) as built:
        build_dq(base)
    assert "more than 65536 elements" in str(built.value)
    cert = RepresentationCertificate(base, (0, 1), 2)
    with pytest.raises(PreconditionError) as verified:
        verify_certificate(_catalog_algebras()["D2_1_1"], cert)
    assert str(verified.value) == str(built.value)


def test_a_certificate_on_65536_relations_is_decided(monkeypatch):
    # the 4-point antichain with full E, whose Dq(E) is too large to build
    # (see the test above that refuses it before allocating); D4_2_3 embeds
    # as the empty relation, the diagonal (the unit), its complement in E
    # and E
    monkeypatch.setattr(qra.represent, "upset_algebra", _refuse("built an up-set algebra"))
    poset = Poset.antichain(4)
    base = RepBase(poset, (poset.carrier,) * 4, range(4), range(4))
    pairs = base.pairs
    full = (1 << len(pairs)) - 1
    diagonal = mask_of(i for i, (x, y) in enumerate(pairs) if x == y)
    position = {m: i for i, m in enumerate(dq_frame(base).poset.upsets_within(1 << 16))}
    alg = _catalog_algebras()["D4_2_3"]
    emb = [0] * alg.size
    (other,) = set(range(alg.size)) - {alg.bottom, alg.top, alg.one}
    for element, relation in ((alg.bottom, 0), (alg.top, full), (alg.one, diagonal),
                              (other, full & ~diagonal)):
        emb[element] = position[relation]
    cert = RepresentationCertificate(base, tuple(emb), 1 << 16)
    start = time.perf_counter()
    assert verify_certificate(alg, cert)
    assert time.perf_counter() - start < 1
    swapped = dataclasses.replace(cert, embedding=(emb[0], emb[2], emb[1], emb[3]))
    assert not verify_certificate(alg, swapped)


def test_rep_base_is_frozen():
    base = chain2_base()
    for field, value in (("alpha", (1, 0)), ("beta", None), ("equiv", (1, 2)),
                         ("poset", Poset.chain(3))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(base, field, value)
    assert base == chain2_base() and base.alpha == (0, 1)
    assert qio.base_from_obj(qio.base_to_obj(base)) == base


@pytest.mark.parametrize("field", ["embed_budget"])
@pytest.mark.parametrize("value", [0, -1])
def test_search_options_need_positive_caps(bool2, field, value):
    with pytest.raises(PreconditionError, match=f"{field} must be at least 1"):
        SearchOptions(**{field: value})
    assert isinstance(representation_search(bool2, 1, SearchOptions(**{field: 1})),
                      (RepresentationCertificate, ExhaustionReport))


def test_representation_search_two_element(bool2):
    result = representation_search(bool2, 1)
    assert isinstance(result, RepresentationCertificate)
    assert result.base.points == 1
    assert verify_certificate(bool2, result)


def test_representation_search_respects_filter(lukasiewicz3):
    result = representation_search(lukasiewicz3.with_neg([2, 1, 0]), 2)
    assert isinstance(result, ExhaustionReport)
    assert result.filter_witness == 1
    assert "no finite representation" in result.note


def test_self_representation_of_dq():
    alg = build_dq(chain2_base()).algebra
    result = representation_search(alg, 2)
    assert isinstance(result, RepresentationCertificate)
    assert result.base.points <= 2
    assert verify_certificate(alg, result)


def test_tampered_certificate_fails(bool2):
    result = representation_search(bool2, 1)
    bad = RepresentationCertificate(
        base=result.base,
        embedding=tuple(reversed(result.embedding)),
        carrier_size=result.carrier_size,
    )
    assert not verify_certificate(bool2, bad)


def test_certificate_with_wrong_carrier_size_fails():
    alg = catalog_lookup("D2_1_1").variants[0].algebra
    result = representation_search(alg, 1)
    assert verify_certificate(alg, result)
    bad = RepresentationCertificate(base=result.base, embedding=result.embedding,
                                    carrier_size=999)
    assert not verify_certificate(alg, bad)


def test_certificate_with_image_outside_target_fails(bool2):
    result = representation_search(bool2, 1)
    bad = RepresentationCertificate(
        base=result.base,
        embedding=(result.embedding[0], result.carrier_size),
        carrier_size=result.carrier_size,
    )
    assert verify_certificate(bool2, bad) is False


def test_representation_search_passes_undecided_bases():
    alg = catalog_lookup("D1_1_1").variants[0].algebra
    options = SearchOptions(embed_budget=12)
    result = representation_search(alg, 2, options)
    assert isinstance(result, RepresentationCertificate)
    assert result == representation_search(alg, 2)
    assert verify_certificate(alg, result)
    undecided = 0
    for base in iterate_bases(2, True, options):
        if base == result.base:
            break
        try:
            embed_search(alg, build_dq(base).algebra, budget=options.embed_budget)
        except BudgetExhausted:
            undecided += 1
    assert undecided == 2


def test_representation_search_ends_undecided():
    alg = catalog_lookup("D4_1_3").variants[0].algebra
    result = representation_search(alg, 2, SearchOptions(embed_budget=12))
    assert isinstance(result, ExhaustionReport)
    assert (result.bases_tried, result.bases_undecided) == (7, 5)
    assert result.filter_witness is None
    decided = representation_search(alg, 2)
    assert (decided.bases_tried, decided.bases_undecided) == (7, 0)


def test_filter_examples(bool2, sugihara3, lukasiewicz3):
    assert no_finite_rep_filter(lukasiewicz3) == 1
    assert no_finite_rep_filter(bool2) is None
    assert no_finite_rep_filter(sugihara3) is None


def test_filter_consistency_with_search():
    # a filter witness must mean that no base up to 2 points takes an
    # embedding, which the search, stopped by the filter, never looks for
    alg = catalog_lookup("D3_1_1").variants[0].algebra
    assert no_finite_rep_filter(alg) is not None
    bases = list(iterate_bases(2, alg.neg is not None, SearchOptions()))
    assert len(bases) == 7
    for base in bases:
        assert embed_search(alg, build_dq(base).algebra) is None


def test_search_option_restrictions(bool2):
    options = SearchOptions(full_e_only=True, alpha_id_only=True)
    result = representation_search(bool2, 1, options)
    assert isinstance(result, RepresentationCertificate)


def test_filter_flags_on_catalog():
    must_be_infinite = {
        name for (name, neg), (status, _) in
        __import__("qra.catalog_data", fromlist=["REPRESENTABILITY"]).REPRESENTABILITY.items()
        if status == "must_be_infinite"
    }
    flagged = set()
    for entry in build_catalog():
        if no_finite_rep_filter(entry.base) is not None:
            flagged.add(entry.name)
    assert must_be_infinite <= flagged


@pytest.mark.stretch
def test_seven_chain_dq_validates():
    # 3,432 elements; associativity is checked on J x J x J for the 49
    # join-irreducibles; about 0.9 s to build and 1.4 s to validate (0.14 s
    # of it the join and meet tables, read off the up-sets in rank order),
    # at 220 MB peak RSS, on a 2-vCPU x86_64 host
    k = 7
    chain = Poset.chain(k)
    base = RepBase(chain, tuple([chain.carrier] * k), tuple(range(k)), tuple(reversed(range(k))))
    alg = build_dq(base, cap=4000).algebra
    assert alg.size == 3432
    assert validate_dqra(alg).ok


@pytest.mark.stretch
def test_eight_chain_dq_validates():
    # 12,870 elements, 64 join-irreducibles; covers and lattice tables are
    # read off the up-sets, the tables in rank order, and residuation is
    # decided by the join extension of lemma 6.  About 11 s to build and
    # 4 s to validate, at 2.2 GB peak RSS, on a 2-vCPU x86_64 host with
    # 8 GB of memory
    k = 8
    chain = Poset.chain(k)
    base = RepBase(chain, tuple([chain.carrier] * k), tuple(range(k)), tuple(reversed(range(k))))
    alg = build_dq(base, cap=13000).algebra
    assert alg.size == 12870
    assert alg.order_poset._from_sets is not None
    assert len(alg.order_poset.join_irreducibles) == 64
    assert validate_dqra(alg).ok
