import itertools
import random

import numpy as np
import pytest

from qra import (
    AlgHom,
    FinAlgebra,
    FrameMap,
    SearchOptions,
    build_dq,
    embed_search,
    enumerate_homs,
    frame_morphism_dual,
    hom_dual,
    join_irreducibles,
    principal_preimage_meet,
    representation_search,
    roundtrip_algebra,
    validate_frame_morphism,
    validate_homomorphism,
)
from qra import morphism
from qra.bundled import bundled_frames
from qra.catalog import build_catalog, catalog_lookup
from qra.errors import BudgetExhausted, PreconditionError
from qra.frame import empty_frame
from qra.morphism import _preserves
from qra.represent import iterate_bases

from conftest import sugihara4


def small_frames():
    return [f for f in bundled_frames().values() if 0 < f.size <= 2]


def all_frame_morphisms(w1, w2):
    out = []
    for image in itertools.product(range(w2.size), repeat=w1.size):
        fm = FrameMap(source=w1, target=w2, map=image)
        if validate_frame_morphism(fm).ok:
            out.append(fm)
    return out


def test_identity_frame_morphism():
    for frame in small_frames():
        fm = FrameMap(source=frame, target=frame, map=tuple(range(frame.size)))
        assert validate_frame_morphism(fm).ok
        dual = frame_morphism_dual(fm)
        assert dual.map == tuple(range(dual.source.size))


def test_empty_domain_morphism_is_ok():
    empty = empty_frame().with_neg(())
    target = bundled_frames()["W2_1_1"]
    fm = FrameMap(source=empty, target=target, map=())
    assert validate_frame_morphism(fm).ok


def test_collapsing_map_fails_identity_preimage():
    w1 = bundled_frames()["W3_1_2"]
    w2 = bundled_frames()["W2_1_1"]
    fm = FrameMap(source=w1, target=w2, map=(0, 0))
    rep = validate_frame_morphism(fm)
    assert not rep.ok
    assert "identity_preimage" in rep.laws_violated()


def test_frame_morphism_dual_prop_checks():
    frames = small_frames()
    checked = 0
    for w1 in frames:
        for w2 in frames:
            if (w1.neg is None) != (w2.neg is None):
                continue
            for fm in all_frame_morphisms(w1, w2):
                dual = frame_morphism_dual(fm)
                assert validate_homomorphism(dual).ok
                if fm.is_surjective():
                    assert dual.is_injective()
                if fm.is_order_embedding():
                    assert dual.is_surjective()
                checked += 1
    assert checked >= 4


def test_hom_validation_examples(sugihara2, bool2):
    s4 = sugihara4()
    h = AlgHom(source=sugihara2, target=s4, map=(1, 2))
    assert validate_homomorphism(h).ok
    bad = AlgHom(source=bool2, target=bool2, map=(1, 1))
    rep = validate_homomorphism(bad)
    assert not rep.ok


def test_enumerate_homs_examples(bool2, sugihara2):
    assert [h.map for h in enumerate_homs(bool2, bool2)] == [(0, 1)]
    s4 = sugihara4()
    homs = enumerate_homs(sugihara2, s4)
    assert [h.map for h in homs] == [(1, 2)]
    # brute force over every map agrees
    brute = [
        image
        for image in itertools.product(range(4), repeat=2)
        if validate_homomorphism(AlgHom(source=sugihara2, target=s4, map=image)).ok
    ]
    assert brute == [h.map for h in homs]


def test_hom_from_trivial_exists_iff_target_odd(sugihara3, bool2):
    from qra import FinAlgebra

    one = FinAlgebra([[1]], [[0]], 0, [0], [0], neg=[0])
    assert [h.map for h in enumerate_homs(one, sugihara3)] == [(1,)]
    assert enumerate_homs(one, bool2) == []


def test_enumerate_homs_budget(bool2):
    with pytest.raises(BudgetExhausted):
        enumerate_homs(bool2, bool2, budget=1)


def test_hom_search_matches_brute_force_on_small_catalog():
    catalog = build_catalog()
    bases = [e.base for e in catalog if e.size <= 4]
    variants = [v.algebra for e in catalog if e.size <= 4 for v in e.variants]
    for group in (bases, variants):
        for a in group:
            for b in group:
                # the unit test first only skips maps validation would reject
                brute = [
                    image
                    for image in itertools.product(range(b.size), repeat=a.size)
                    if image[a.one] == b.one
                    and validate_homomorphism(AlgHom(source=a, target=b, map=image)).ok
                ]
                assert [h.map for h in enumerate_homs(a, b)] == brute, (a.name, b.name)
                found = embed_search(a, b)
                if found is None:
                    assert all(len(set(image)) < a.size for image in brute), (a.name, b.name)
                else:
                    assert found.is_injective() and validate_homomorphism(found).ok


def _order_consistent_assignments(a, b, injective):
    """Assignments of images to a prefix of the generators (bottom, then the
    join-irreducibles) that preserve, and if injective also reflect, their
    order; the empty assignment included."""
    gens = [a.bottom] + [j for j in join_irreducibles(a) if j != a.bottom]
    count = 0
    for k in range(len(gens) + 1):
        for images in itertools.product(range(b.size), repeat=k):
            if all(
                bool(b.leq[images[i], images[m]]) == bool(a.leq[gens[i], gens[m]])
                if injective
                else b.leq[images[i], images[m]] or not a.leq[gens[i], gens[m]]
                for i in range(k)
                for m in range(k)
            ):
                count += 1
    return count


def test_hom_search_visits_exactly_the_order_consistent_assignments():
    catalog = build_catalog()
    bases = [e.base for e in catalog if e.size <= 4]
    variants = [v.algebra for e in catalog if e.size <= 4 for v in e.variants]
    # reversed carriers list some join-irreducibles before those below them
    reversed_sources = [a.relabel(tuple(reversed(range(a.size)))) for a in bases + variants]
    exhausted = 0
    for sources, targets in ((bases, bases), (variants, variants),
                             (reversed_sources, bases + variants)):
        for a in sources:
            for b in targets:
                if (a.neg is None) != (b.neg is None):
                    continue
                nodes = _order_consistent_assignments(a, b, injective=False)
                enumerate_homs(a, b, budget=nodes)
                with pytest.raises(BudgetExhausted):
                    enumerate_homs(a, b, budget=nodes - 1)
                if a.size > b.size or embed_search(a, b) is not None:
                    continue
                nodes = _order_consistent_assignments(a, b, injective=True)
                assert embed_search(a, b, budget=nodes) is None
                with pytest.raises(BudgetExhausted):
                    embed_search(a, b, budget=nodes - 1)
                exhausted += 1
    assert exhausted > 20


def _leaf_verdicts_agree(a, b, image):
    ok = validate_homomorphism(AlgHom(source=a, target=b, map=image)).ok
    assert _preserves(a, b)(list(image)) == ok, (a.name, b.name, image)
    injective = ok and len(set(image)) == a.size
    assert _preserves(a, b, injective=True)(list(image)) == injective, (a.name, b.name, image)
    return ok


def test_leaf_check_matches_validation_on_every_small_catalog_map():
    catalog = build_catalog()
    bases = [e.base for e in catalog if e.size <= 3]
    variants = [v.algebra for e in catalog if e.size <= 3 for v in e.variants]
    accepted = 0
    for group in (bases, variants):
        for a in group:
            for b in group:
                for image in itertools.product(range(b.size), repeat=a.size):
                    accepted += _leaf_verdicts_agree(a, b, image)
    assert accepted > 10


def test_leaf_check_matches_validation_on_random_maps_into_dq():
    sources = [v.algebra for e in build_catalog() if e.size == 4 for v in e.variants]
    targets = [build_dq(base).algebra
               for base in iterate_bases(2, True, SearchOptions()) if base.points == 2]
    rng = random.Random(9)
    for k in range(2000):
        a, b = rng.choice(sources), rng.choice(targets)
        image = [rng.randrange(b.size) for _ in range(a.size)]
        if k % 2:
            # past the unit, so the later parts of the check decide
            image[a.one] = b.one
        _leaf_verdicts_agree(a, b, tuple(image))


def _hand_algebra(n, strict, product, one, tilde=None, minus=None, neg=None):
    """An algebra on n elements ordered by the (transitive) pairs ``strict``,
    with product ``"meet"``, ``"join"`` or a table; unary maps default to
    the identity.  Not a DInFL-algebra in general."""
    leq = np.eye(n, dtype=bool)
    for i, j in strict:
        leq[i, j] = True
    ident = list(range(n))
    if isinstance(product, str):
        shape = FinAlgebra(leq, np.zeros((n, n), dtype=int), one, ident, ident)
        product = shape.meet_table if product == "meet" else shape.join_table
    return FinAlgebra(leq, product, one, tilde or ident, minus or ident, neg=neg or ident)


def _maps_breaking_one_law():
    chain = [(0, 1)]
    square = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
    # 0 < 1, 2 < 3 < 4 and 0 < 1 < 2, 3 < 4
    v_top = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
    v_bottom = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]
    two = _hand_algebra(2, chain, "meet", 1)
    return [
        ("unit_preserved", two, _hand_algebra(2, chain, "meet", 0), (0, 1)),
        ("tilde_preserved", two, _hand_algebra(2, chain, "meet", 1, tilde=[1, 0]), (0, 1)),
        ("minus_preserved", two, _hand_algebra(2, chain, "meet", 1, minus=[1, 0]), (0, 1)),
        ("neg_preserved", two, _hand_algebra(2, chain, "meet", 1, neg=[1, 0]), (0, 1)),
        ("product_preserved", two, _hand_algebra(2, chain, "join", 1), (0, 1)),
        ("join_preserved", _hand_algebra(4, square, "meet", 3),
         _hand_algebra(5, v_top, "meet", 4), (0, 1, 2, 4)),
        ("meet_preserved", _hand_algebra(4, square, "join", 0),
         _hand_algebra(5, v_bottom, "join", 0), (0, 2, 3, 4)),
    ]


def test_leaf_check_rejects_a_map_breaking_any_single_law():
    cases = _maps_breaking_one_law()
    assert len({law for law, *_ in cases}) == 7
    for law, a, b, image in cases:
        assert validate_homomorphism(AlgHom(source=a, target=b, map=image)).laws_violated() \
            == [law]
        assert not _preserves(a, b)(list(image)), law


def test_hom_search_validates_each_yielded_map_once(monkeypatch):
    validated = []

    def counting(h):
        validated.append(h.map)
        return validate_homomorphism(h)

    monkeypatch.setattr(morphism, "validate_homomorphism", counting)
    variants = [v.algebra for e in build_catalog() if e.size <= 4 for v in e.variants]
    yielded = []
    for a in variants:
        for b in variants:
            yielded += [h.map for h in enumerate_homs(a, b)]
    assert len(yielded) > 50
    assert sorted(validated) == sorted(yielded)
    alg = catalog_lookup("D6_4_2").variants[0].algebra
    validated.clear()
    cert = representation_search(alg, 3)
    # every base before the certificate's yields nothing
    assert cert.base.points == 3 and validated == [cert.embedding]
    validated.clear()
    hom = embed_search(alg, build_dq(cert.base).algebra)
    assert validated == [hom.map] == [cert.embedding]


def test_hom_dual_needs_completeness(sugihara2):
    s4 = sugihara4()
    h = AlgHom(source=sugihara2, target=s4, map=(1, 2))
    assert not h.is_complete()
    with pytest.raises(PreconditionError):
        hom_dual(h)
    # the empty-preimage meet is still the top of the source chain
    assert principal_preimage_meet(h, 3) == sugihara2.top


def _complete_homs(a, b):
    try:
        return [h for h in enumerate_homs(a, b) if h.is_complete()]
    except BudgetExhausted:
        return []


def test_hom_dual_prop_checks_small_catalog():
    algebras = [
        v.algebra for e in build_catalog() if e.size <= 4 for v in e.variants
    ]
    pairs_checked = 0
    for a in algebras:
        for b in algebras:
            for h in _complete_homs(a, b):
                fm = hom_dual(h)
                assert validate_frame_morphism(fm).ok
                if h.is_injective():
                    assert fm.is_surjective()
                if h.is_surjective():
                    assert fm.is_order_embedding()
                pairs_checked += 1
    assert pairs_checked > 50


def test_lemma_style_preimage_meet_facts():
    algebras = [e.variants[0].algebra for e in build_catalog() if e.size <= 4]
    for a in algebras:
        for b in algebras:
            for h in _complete_homs(a, b):
                f = h.map
                for jb in range(b.size):
                    m = principal_preimage_meet(h, jb)
                    # jb <= h(meet of preimage)
                    assert b.leq[jb, f[m]]
                    for x in range(a.size):
                        if b.leq[jb, f[x]]:
                            assert a.leq[m, x]
                # the converse implication needs jb join-irreducible
                from qra import join_irreducibles

                for jb in join_irreducibles(b):
                    m = principal_preimage_meet(h, jb)
                    for x in range(a.size):
                        if a.leq[m, x]:
                            assert b.leq[jb, f[x]]


def test_dual_of_dual_matches_through_roundtrip():
    algebras = [e.variants[0].algebra for e in build_catalog() if e.size <= 4]
    for a in algebras:
        for b in algebras:
            for h in _complete_homs(a, b):
                fm = hom_dual(h)
                back = frame_morphism_dual(fm)  # (A_+)^+ -> (B_+)^+
                psi_a = roundtrip_algebra(a)
                psi_b = roundtrip_algebra(b)
                for x in range(a.size):
                    assert back.map[psi_a[x]] == psi_b[h.map[x]]
