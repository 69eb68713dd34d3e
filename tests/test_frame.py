import numpy as np
import pytest
from conftest import block_family, fresh_copy

import qra.frame
from qra import (
    algebra_iso,
    complex_algebra,
    dual_frame,
    empty_frame,
    frame_iso,
    roundtrip_algebra,
    roundtrip_frame,
    validate_dinfl_frame,
    validate_dqra_frame,
    validate_frame,
)
from qra.bundled import bundled_frame, bundled_frames
from qra.catalog import build_catalog, match_dqra
from qra.errors import InternalCheckError, SignatureError, StructuralError
from qra.frame import Frame, _build_dual_frame, _positions, upset_algebra
from qra.order import InclusionOrder, Poset, mask_of
from qra.represent import RepBase, build_dq


def test_all_bundled_frames_validate_and_roundtrip():
    for name, frame in bundled_frames().items():
        rep = validate_frame(frame)
        assert rep.ok, (name, rep.failures[:3])
        roundtrip_frame(frame)
        # tilde and minus coincide for these frames: checked, not assumed
        assert frame.tilde == frame.minus, name


def test_empty_frame_is_legal():
    frame = empty_frame()
    assert validate_dinfl_frame(frame).ok
    assert complex_algebra(frame).size == 1


def test_wrong_identity_fails_condition_one():
    w = bundled_frame("W3_1_2")
    # the identity upset in frame order is {e}; using the whole carrier
    # breaks the identity-composition law
    broken = Frame(w.poset, w.poset.carrier, w.comp, w.tilde, w.minus, neg=w.neg)
    rep = validate_dqra_frame(broken)
    assert not rep.ok
    assert any(law.startswith("identity_composition") for law in rep.laws_violated())
    # a non-upset identity set fails the upset condition
    broken2 = Frame(w.poset, 0b01, w.comp, w.tilde, w.minus, neg=w.neg)
    assert "identity_upset" in validate_dqra_frame(broken2).laws_violated()


def test_rotation_violation_detected():
    w = bundled_frame("W4_2_2")
    comp = [list(row) for row in w.comp]
    comp[1][1] = 0b10  # u.u was {e}
    broken = Frame(w.poset, w.identity, comp, w.tilde, w.minus, neg=w.neg)
    rep = validate_frame(broken)
    assert not rep.ok


def test_non_permutation_neg_is_structural():
    w = bundled_frame("W3_1_2")
    with pytest.raises(StructuralError):
        Frame(w.poset, w.identity, w.comp, w.tilde, w.minus, neg=[0, 0])


def test_complex_algebra_examples(bool2, lukasiewicz4, sugihara3, lukasiewicz3):
    assert algebra_iso(complex_algebra(bundled_frame("W2_1_1")), bool2) is not None
    assert algebra_iso(complex_algebra(bundled_frame("W4_1_2")), lukasiewicz4) is not None
    assert algebra_iso(complex_algebra(bundled_frame("W3_1_2")), sugihara3) is not None
    assert algebra_iso(complex_algebra(bundled_frame("W3_1_1")), lukasiewicz3) is not None


def test_dual_frame_examples(bool2, sugihara3, lukasiewicz3):
    assert frame_iso(dual_frame(bool2), bundled_frame("W2_1_1")) is not None
    w = dual_frame(lukasiewicz3)
    assert frame_iso(w, bundled_frame("W3_1_1")) is not None
    # the middle element's self-composition is empty in the dual frame
    top_of_frame = [x for x in range(w.size) if w.poset.up[x] == (1 << x)]
    assert any(w.comp[x][x] == 0 for x in range(w.size))
    assert frame_iso(dual_frame(sugihara3), bundled_frame("W3_1_2")) is not None


def test_complex_algebra_size_is_upset_count():
    for name, frame in bundled_frames().items():
        assert complex_algebra(frame).size == len(frame.upsets), name


def test_roundtrip_algebra_examples(lukasiewicz4):
    psi = roundtrip_algebra(lukasiewicz4)
    assert sorted(psi) == list(range(4))
    assert len(dual_frame(lukasiewicz4).carrier_elements) == 3


def test_frame_iso_examples():
    wa = bundled_frame("W4_2_1a")
    wb = bundled_frame("W4_2_1b")
    assert frame_iso(wa, wb) is None  # distinct as DqRA-frames
    assert frame_iso(wa.without_neg(), wb.without_neg()) is not None
    assert frame_iso(wa, wa) == [0, 1]
    with pytest.raises(SignatureError):
        frame_iso(wa, wb.without_neg())


def test_table_frames_match_named_algebras():
    # the complex algebra of each bundled frame lands on the catalog name
    # printed alongside it, with the 3,1/3,2 pair crossed as published
    expected = {
        "W1_1_1": ("D1_1_1", "~"),
        "W2_1_1": ("D2_1_1", "~"),
        "W3_1_1": ("D3_1_1", "~"),
        "W3_1_2": ("D3_1_2", "~"),
        "W4_1_1": ("D4_1_1", "~"),
        "W4_1_2": ("D4_1_2", "~"),
        "W4_1_3": ("D4_1_3", "~"),
        "W4_1_4": ("D4_1_4", "~"),
        "W4_2_1a": ("D4_2_1_2", "~"),
        "W4_2_1b": ("D4_2_1_2", "a=a"),
        "W4_2_2": ("D4_2_2", "~"),
        "W4_2_3": ("D4_2_3", "~"),
        "W4_3_1": ("D4_3_2", "~"),
        "W4_3_2": ("D4_3_1", "~"),
    }
    for name, frame in bundled_frames().items():
        alg = complex_algebra(frame)
        entry, variant, _ = match_dqra(alg)
        assert (entry.name, variant.neg_desc) == expected[name], name


def test_catalog_algebras_roundtrip():
    from qra.catalog import build_catalog

    for entry in build_catalog():
        roundtrip_algebra(entry.base)
        for variant in entry.variants:
            roundtrip_algebra(variant.algebra)


def test_dual_frames_of_catalog_validate():
    from qra.catalog import build_catalog

    for entry in build_catalog():
        for variant in entry.variants:
            frame = dual_frame(variant.algebra)
            assert validate_frame(frame).ok, entry.name


def test_upset_algebra_matches_compose_sets_beyond_64_points():
    frame, atoms, ups = block_family()
    n = frame.size
    alg = upset_algebra(frame, ups)
    assert ups[alg.one] == frame.identity
    for i, u in enumerate(ups):
        for op, pointmap in ((alg.tilde, frame.minus), (alg.minus, frame.tilde),
                             (alg.neg, frame.neg)):
            assert ups[op[i]] == mask_of(w for w in range(n) if not (u >> pointmap[w]) & 1)
        for j, v in enumerate(ups):
            assert alg.leq[i, j] == (u & ~v == 0)
            assert ups[alg.product[i, j]] == frame.compose_sets(u, v)
    # lists the negations leave: one without the block past bit 64 alone
    # (the empty set's twin in the first word), one without 0..5 alone,
    # and one whose second words all miss the block across bit 64
    for part in (ups[:1] + ups[2:], ups[:2] + ups[3:], [u for u in ups if not u & atoms[3]]):
        with pytest.raises(InternalCheckError, match="left the upsets"):
            upset_algebra(frame, part)


def test_word_row_lookup_reports_rows_missing_in_a_later_word():
    # (2, 7) matches (2, 0) in the first word; ranks combined without a
    # check on the second word would land it on (1, 5)
    sets = np.array([[1, 5], [2, 0]], dtype="<u8")
    assert _positions(sets, sets[::-1], "row").tolist() == [1, 0]
    with pytest.raises(InternalCheckError, match="row left the upsets"):
        _positions(sets, np.array([[2, 7]], dtype="<u8"), "row")


def test_dual_frame_is_built_once_per_algebra(lukasiewicz4):
    assert dual_frame(lukasiewicz4) is dual_frame(lukasiewicz4)
    fresh = _build_dual_frame(lukasiewicz4)
    assert dual_frame(lukasiewicz4).encoding() == fresh.encoding()


def test_each_algebra_on_a_shared_order_has_its_own_dual_frame():
    # the two variants of D4_2_1_2 differ only in neg, so with_neg and
    # without_neg give algebras on one shared order poset
    entry = next(e for e in build_catalog() if e.name == "D4_2_1_2")
    alg, other = (v.algebra for v in entry.variants)
    twin = alg.with_neg(other.neg)
    plain = alg.without_neg()
    assert twin.order_poset is alg.order_poset is plain.order_poset
    frames = [dual_frame(a) for a in (alg, twin, plain)]
    assert len({id(f) for f in frames}) == 3
    assert frames[0].neg != frames[1].neg
    assert frames[2].neg is None
    for a, frame in zip((alg, twin, plain), frames):
        assert frame.encoding() == dual_frame(fresh_copy(a)).encoding()
    relabelled = alg.relabel(list(reversed(range(alg.size))))
    assert dual_frame(relabelled) is not frames[0]
    assert dual_frame(relabelled).encoding() == _build_dual_frame(relabelled).encoding()
    copy = fresh_copy(alg)
    assert dual_frame(copy) is not frames[0]
    assert dual_frame(copy).encoding() == frames[0].encoding()


def test_each_algebra_round_trip_checks_its_witness(lukasiewicz4, monkeypatch):
    checks = []
    check = qra.frame.check_witness

    def counted(*args):
        checks.append(args[-1])
        return check(*args)

    monkeypatch.setattr(qra.frame, "check_witness", counted)
    first = roundtrip_algebra(lukasiewicz4)
    assert roundtrip_algebra(lukasiewicz4) == first
    assert checks == ["round-trip witness"] * 2


def _chain_dq(points):
    poset = Poset.chain(points)
    base = RepBase(poset, (poset.carrier,) * points, tuple(range(points)),
                   tuple(reversed(range(points))))
    return build_dq(base).algebra


def test_distributive_is_read_off_a_ring_of_sets():
    alg = _chain_dq(4)
    poset = alg.order_poset
    assert isinstance(poset, InclusionOrder) and poset.lattice_from_sets
    assert alg.order_poset.distributive
    # answered by the lemma, without the word-row test over the keys
    assert "down_keys" not in poset.__dict__
    assert fresh_copy(alg).order_poset.distributive


def test_distributive_tests_a_family_without_one_point_covers():
    frame, _, ups = block_family()
    alg = upset_algebra(frame, ups)
    poset = alg.order_poset
    assert isinstance(poset, InclusionOrder) and not poset.lattice_from_sets
    assert alg.order_poset.distributive
    assert "down_keys" in poset.__dict__
