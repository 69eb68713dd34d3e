import itertools

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
from qra import io as qio
from qra.catalog import build_catalog, catalog_lookup
from qra.cli import main
from qra.errors import BudgetExhausted, PreconditionError, StructuralError
from qra.order import Poset, bits, mask_of
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
    options = SearchOptions()
    for need_beta in (True, False):
        for base in iterate_bases(3, need_beta, options):
            if twist_order(base)[1].count_upsets(options.upset_cap) <= options.upset_cap:
                yield base


@pytest.mark.parametrize("need_beta", [True, False])
def test_iterate_bases_yields_each_base_once(need_beta):
    keys = [(b.poset.up, b.equiv, b.alpha, b.beta)
            for b in iterate_bases(3, need_beta, SearchOptions())]
    assert len(keys) == len(set(keys))
    assert [len(k[0]) for k in keys] == sorted(len(k[0]) for k in keys)


def test_build_dq_matches_the_definitions_on_all_small_bases():
    bases = list(_small_bases())
    assert len(bases) == 64
    for base in bases:
        assert validate_frame(dq_frame(base)).ok
        dq = build_dq(base)
        alg = dq.algebra
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
    k = len(base.pair_list())
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


def test_a_search_certifying_at_one_point_grows_no_larger_poset(monkeypatch):
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
    # a filter witness must mean exhaustion at small point counts, even
    # with the shortcut disabled
    alg = catalog_lookup("D3_1_1").variants[0].algebra
    assert no_finite_rep_filter(alg) is not None
    options = SearchOptions(apply_filter=False, upset_cap=256)
    for k in (1, 2):
        result = representation_search(alg, k, options)
        assert isinstance(result, ExhaustionReport)


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
    # join-irreducibles; about 1.0 s to build and 1.9 s to validate, at
    # 220 MB peak RSS, on a 2-vCPU x86_64 host
    k = 7
    chain = Poset.chain(k)
    base = RepBase(chain, tuple([chain.carrier] * k), tuple(range(k)), tuple(reversed(range(k))))
    alg = build_dq(base, cap=4000).algebra
    assert alg.size == 3432
    assert validate_dqra(alg).ok


@pytest.mark.stretch
def test_eight_chain_dq_validates():
    # 12,870 elements, 64 join-irreducibles; covers and lattice tables are
    # read off the up-sets.  About 13 s to build and 32 s to validate, at
    # 2.6 GB peak RSS, on a 2-vCPU x86_64 host with 8 GB of memory
    k = 8
    chain = Poset.chain(k)
    base = RepBase(chain, tuple([chain.carrier] * k), tuple(range(k)), tuple(reversed(range(k))))
    alg = build_dq(base, cap=13000).algebra
    assert alg.size == 12870
    assert alg.order_poset._from_sets is not None
    assert len(alg.order_poset.join_irreducibles) == 64
    assert validate_dqra(alg).ok
