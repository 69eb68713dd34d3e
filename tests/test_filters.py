import random

import numpy as np
from conftest import fresh_copy

import qra.filters
from qra import (
    FinAlgebra,
    dual_frame,
    filter_frame,
    filter_product,
    filter_unaries,
    gen_prime_filters,
    priestley_roundtrip,
    space_algebra,
    validate_pointed_frame,
)
from qra.catalog import build_catalog
from qra.enumerate import enumerate_algebras
from qra.filters import _build_filter_frame, is_gen_prime_filter
from qra.frame import Frame, _build_dual_frame
from qra.order import Poset, bits, mask_of
from qra.ra import builtin_atom_structures, ra_from_atoms


def brute_force_filters(alg):
    return [m for m in range(1 << alg.size) if is_gen_prime_filter(alg, m)]


def test_filter_counts_match_brute_force(bool2, sugihara3, lukasiewicz4):
    one = FinAlgebra([[1]], [[0]], 0, [0], [0], neg=[0])
    for alg, count in ((bool2, 3), (one, 2), (lukasiewicz4, 5)):
        filters = gen_prime_filters(alg)
        assert len(filters) == count
        assert sorted(filters) == sorted(brute_force_filters(alg))
    assert sorted(gen_prime_filters(sugihara3)) == sorted(brute_force_filters(sugihara3))


def test_filters_brute_force_on_catalog():
    for entry in build_catalog():
        if entry.size > 6:
            continue
        alg = entry.base
        assert sorted(gen_prime_filters(alg)) == sorted(brute_force_filters(alg))


def _catalog_algebras():
    for entry in build_catalog():
        yield entry.base
        yield from (v.algebra for v in entry.variants)


def test_is_gen_prime_filter_matches_the_definition_on_catalog():
    for alg in _catalog_algebras():
        n = alg.size
        leq, meet, join = alg.leq, alg.meet_table, alg.join_table
        for m in range(1 << n):
            inside = (m >> np.arange(n)) & 1 == 1
            pairs = inside[:, None] & inside[None, :]
            proper = (
                not (inside[:, None] & leq & ~inside[None, :]).any()  # an upset
                and inside[meet][pairs].all()  # closed under meet
                and not (inside[join] & ~inside[:, None] & ~inside[None, :]).any()  # prime
            )
            assert is_gen_prime_filter(alg, m) == (m in (0, (1 << n) - 1) or proper), \
                (alg.name, m)


def test_filter_product_matches_the_definition_on_catalog():
    rng = random.Random(5)
    for alg in _catalog_algebras():
        n = alg.size
        filters = gen_prime_filters(alg)
        masks = filters + [rng.randrange(1 << n) for _ in range(4)]
        for f in masks:
            for g in masks:
                products = alg.product[np.ix_(list(bits(f)), list(bits(g)))].ravel()
                want = [h for h in filters if all((h >> int(p)) & 1 for p in products)]
                assert filter_product(alg, f, g) == want, (alg.name, f, g)


def test_filter_unaries_examples(sugihara3):
    full = (1 << sugihara3.size) - 1
    assert filter_unaries(sugihara3, full)[0] == 0
    assert filter_unaries(sugihara3, 0)[0] == full
    # on the 3-chain the tilde image swaps the two principal filters
    up1 = sugihara3.order_poset.up[1]
    uptop = sugihara3.order_poset.up[2]
    assert filter_unaries(sugihara3, up1)[0] == uptop
    assert filter_unaries(sugihara3, uptop)[0] == up1


def test_filter_antitone_and_involutive(lukasiewicz4):
    filters = gen_prime_filters(lukasiewicz4)
    for f in filters:
        for g in filters:
            if f & ~g == 0:
                assert filter_unaries(lukasiewicz4, g)[0] & ~filter_unaries(lukasiewicz4, f)[0] == 0
        ft, fm, _ = filter_unaries(lukasiewicz4, f)
        assert filter_unaries(lukasiewicz4, ft)[1] == f  # (F^~)^- = F


def test_filter_product_examples(bool2, sugihara3):
    filters = gen_prime_filters(bool2)
    # empty filter times anything gives every filter
    assert filter_product(bool2, 0, filters[-1]) == filters
    f1 = bool2.order_poset.up[1]  # the prime filter at the top
    assert filter_product(bool2, f1, f1) == [f1, (1 << 2) - 1]
    full = (1 << sugihara3.size) - 1
    assert full in filter_product(sugihara3, full, full)


def test_filter_frame_shapes(bool2):
    one = FinAlgebra([[1]], [[0]], 0, [0], [0], neg=[0])
    pf = filter_frame(one)
    assert pf.frame.size == 2  # two-point chain
    assert pf.frame.poset.leq(pf.bottom, pf.top)
    pf2 = filter_frame(bool2)
    assert pf2.frame.size == 3
    assert validate_pointed_frame(pf2).ok
    rep = validate_pointed_frame(pf2)
    assert any("discrete topology" in note for note in rep.notes)


def test_space_algebra_roundtrip_examples(bool2, sugihara3):
    one = FinAlgebra([[1]], [[0]], 0, [0], [0], neg=[0])
    for alg in (one, bool2, sugihara3):
        witness = priestley_roundtrip(alg)
        assert sorted(witness) == list(range(alg.size))
        assert space_algebra(filter_frame(alg)).size == alg.size


def test_unbounded_fidelity_on_catalog():
    for entry in build_catalog():
        for variant in entry.variants:
            assert space_algebra(filter_frame(variant.algebra)).size == variant.algebra.size


def test_stripped_filter_frame_is_the_dual_frame():
    # dropping the two bounds leaves the dual frame itself, point j of the
    # dual frame being the filter up(j): containment of principal filters
    # is already the reversed algebra order
    for alg in _catalog_algebras():
        pf = filter_frame(alg)
        frame = pf.frame
        dual = dual_frame(alg)
        index = {f: x for x, f in enumerate(frame.carrier_elements)}
        keep = [index[alg.order_poset.up[j]] for j in dual.carrier_elements]
        assert sorted(keep + [pf.bottom, pf.top]) == list(range(frame.size))
        pos = {x: i for i, x in enumerate(keep)}
        up = [mask_of(pos[y] for y in keep if frame.poset.leq(x, y)) for x in keep]
        comp = [
            [mask_of(pos[z] for z in bits(frame.comp[x][y]) if z in pos)
             for y in keep] for x in keep
        ]
        tilde = [pos[frame.tilde[x]] for x in keep]
        minus = [pos[frame.minus[x]] for x in keep]
        neg = None if frame.neg is None else [pos[frame.neg[x]] for x in keep]
        identity = mask_of(pos[x] for x in bits(frame.identity) if x in pos)
        stripped = Frame(Poset(tuple(up)), identity, comp, tilde, minus, neg=neg)
        assert stripped.poset.up == dual.poset.up, alg.name
        assert stripped.encoding() == dual.encoding(), alg.name


def _definition_corpus():
    yield from _catalog_algebras()
    for struct in builtin_atom_structures():
        yield ra_from_atoms(struct, check=False)
    for signature in ("dinfl", "dqra"):
        yield from enumerate_algebras(6, signature)


def test_filter_frame_matches_the_definitions():
    for alg in _definition_corpus():
        pf = filter_frame(alg)
        frame = pf.frame
        filters = gen_prime_filters(alg)
        assert list(frame.carrier_elements) == filters, alg.name
        index = {f: x for x, f in enumerate(filters)}
        for x, f in enumerate(filters):
            assert frame.poset.up[x] == mask_of(
                y for y, g in enumerate(filters) if f & ~g == 0), (alg.name, x)
            for y, g in enumerate(filters):
                assert frame.comp[x][y] == mask_of(
                    index[h] for h in filter_product(alg, f, g)), (alg.name, x, y)
            ft, fm, fn = filter_unaries(alg, f)
            assert (frame.tilde[x], frame.minus[x]) == (index[ft], index[fm]), (alg.name, x)
            assert frame.neg is None or frame.neg[x] == index[fn], (alg.name, x)
        assert frame.identity == mask_of(
            x for x, f in enumerate(filters) if (f >> alg.one) & 1), alg.name
        assert (pf.bottom, pf.top) == (index[0], index[(1 << alg.size) - 1])


def test_empty_and_total_sets_are_filters_of_any_order():
    # the two-element antichain has no meets or joins to build tables from
    antichain = FinAlgebra([[1, 0], [0, 1]], [[0, 1], [1, 0]], 0, [1, 0], [1, 0])
    assert is_gen_prime_filter(antichain, 0)
    assert is_gen_prime_filter(antichain, 0b11)


def test_preimages_of_filters_under_homs():
    # inverse images of generalised prime filters along a homomorphism are
    # generalised prime filters again
    from qra import enumerate_homs

    algebras = [e.variants[0].algebra for e in build_catalog() if e.size <= 4]
    for a in algebras:
        for b in algebras:
            for h in enumerate_homs(a, b):
                for g in gen_prime_filters(b):
                    pre = mask_of(x for x in range(a.size) if (g >> h.map[x]) & 1)
                    assert is_gen_prime_filter(a, pre)


def test_filter_frame_is_built_and_validated_once(sugihara3, monkeypatch):
    validations = []
    validate = qra.filters.validate_pointed_frame

    def counted(pf):
        validations.append(pf)
        return validate(pf)

    monkeypatch.setattr(qra.filters, "validate_pointed_frame", counted)
    pf = filter_frame(sugihara3)
    assert filter_frame(sugihara3) is pf
    assert sorted(priestley_roundtrip(sugihara3)) == list(range(sugihara3.size))
    assert validations == [pf]


def test_each_algebra_on_a_shared_order_has_its_own_filter_frame():
    entry = next(e for e in build_catalog() if e.name == "D6_3_1_2")
    alg, other = (v.algebra for v in entry.variants)
    family = [alg, alg.with_neg(other.neg), alg.without_neg(),
              alg.relabel(list(reversed(range(alg.size)))), fresh_copy(alg)]
    frames = [filter_frame(a) for a in family]
    assert len({id(pf) for pf in frames}) == len(family)
    assert frames[0].frame.neg != frames[1].frame.neg
    assert frames[2].frame.neg is None
    for a, pf in zip(family, frames):
        fresh = filter_frame(fresh_copy(a))
        assert pf.frame.encoding() == fresh.frame.encoding(), a.name
        assert (pf.bottom, pf.top) == (fresh.bottom, fresh.top)


def test_shared_frames_match_fresh_builds():
    algebras = [v.algebra for e in build_catalog() for v in e.variants]
    algebras += enumerate_algebras(7, "dqra")
    for alg in algebras:
        for shared, fresh in ((dual_frame(alg), _build_dual_frame(alg)),
                              (filter_frame(alg).frame, _build_filter_frame(alg).frame)):
            assert shared.encoding() == fresh.encoding(), alg.name
            assert shared.carrier_elements == fresh.carrier_elements, alg.name
            assert shared.name == fresh.name, alg.name
        assert dual_frame(alg) is dual_frame(alg)
        assert filter_frame(alg) is filter_frame(alg)
