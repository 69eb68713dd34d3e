"""Acceptance suite: one test per gating criterion, each printing a
pass/fail line with its runtime and asserting the stated tolerance
(everything here is exact) and time budget."""

import time

from qra import (
    RepresentationCertificate,
    algebra_iso,
    build_dq,
    builtin_atom_structures,
    check_complement_shift,
    check_di,
    classify,
    count_algebras,
    enumerate_frames,
    enumerate_homs,
    family_criteria,
    filter_frame,
    frame_iso,
    frame_morphism_dual,
    hom_dual,
    max_proper_qra_subreduct,
    no_finite_rep_filter,
    priestley_roundtrip,
    representation_search,
    roundtrip_algebra,
    roundtrip_frame,
    validate_dinfl,
    validate_dinfl_frame,
    validate_dqra,
    validate_dqra_frame,
    validate_frame,
    validate_frame_morphism,
    validate_homomorphism,
    validate_pointed_frame,
    verify_certificate,
)
from qra.bundled import bundled_frames
from qra.catalog import build_catalog
from qra.catalog_data import REPRESENTABILITY
from qra.enumerate import enumerate_algebras
from qra.order import NAMED_POSETS, Poset, all_posets
from qra.ra import FAMILY_A_EXPECTED, FAMILY_B_EXPECTED, FAMILY_NONE_EXPECTED
from qra.represent import RepBase, dq_zero_relation


def report(number, label, started, limit=None):
    elapsed = time.time() - started
    budget = "" if limit is None else f" (limit {limit:.0f}s)"
    print(f"criterion {number}: PASS [{label}] in {elapsed:.1f}s{budget}")
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def small_upset_posets():
    return [Poset(()), NAMED_POSETS["1"], NAMED_POSETS["2"], NAMED_POSETS["3"],
            NAMED_POSETS["1+1"]]


def test_criterion_1_table_reproduction():
    started = time.time()
    enumerated = []
    for poset in small_upset_posets():
        assert len(poset.upsets) <= 4 or poset.n == 0
        enumerated.extend(enumerate_frames(poset, "dqra").frames)
    bundled = list(bundled_frames().values())
    # the enumeration over posets with at most four upsets reproduces the
    # bundled frame table exactly, up to isomorphism, empty frame included
    assert len(enumerated) == len(bundled) == 14
    matched = set()
    for frame in enumerated:
        hits = [
            name for name, other in bundled_frames().items()
            if other.size == frame.size and frame_iso(frame, other) is not None
        ]
        assert len(hits) == 1, f"enumerated frame matched {hits}"
        matched.add(hits[0])
    assert matched == set(bundled_frames())
    for name, frame in bundled_frames().items():
        assert validate_frame(frame).ok, name
        roundtrip_frame(frame)
    report(1, "frame table over posets with <= 4 upsets", started, limit=5)


def test_criterion_2_per_poset_counts():
    started = time.time()
    expected = {
        "1": (1, 1), "2": (2, 2), "1+1": (5, 6), "3": (4, 4), "4": (8, 8),
        "1+2": (10, 10), "2x2": (16, 23), "bowtie": (11, 12),
    }
    for name, (di, dq) in expected.items():
        poset = NAMED_POSETS[name]
        got = (
            enumerate_frames(poset, "dinfl").count,
            enumerate_frames(poset, "dqra").count,
        )
        assert got == (di, dq), (name, got)
    report(2, "frame counts for the eight posets of size <= 4", started, limit=60)


def test_criterion_3_algebra_counts():
    started = time.time()
    expected_di = [1, 1, 2, 9, 8, 43]
    expected_dq = [1, 1, 2, 10, 8, 50]
    for n in range(1, 7):
        di, dq = count_algebras(n)
        assert (di, dq) == (expected_di[n - 1], expected_dq[n - 1]), n
    report(3, "algebra counts for sizes 1..6", started, limit=300)


def test_criterion_4_duality_roundtrips():
    started = time.time()
    frames = 0
    for poset in all_posets(4):
        for signature in ("dinfl", "dqra"):
            for frame in enumerate_frames(poset, signature).frames:
                roundtrip_frame(frame)
                frames += 1
    algebras = 0
    for n in range(1, 7):
        for signature in ("dinfl", "dqra"):
            for alg in enumerate_algebras(n, signature):
                roundtrip_algebra(alg)
                algebras += 1
    assert frames >= 2 * (1 + 2 + 5 + 4 + 8 + 10 + 16 + 11)
    assert algebras == (1 + 1 + 2 + 9 + 8 + 43) + (1 + 1 + 2 + 10 + 8 + 50)
    report(4, f"{frames} frame and {algebras} algebra round-trips", started)


def test_criterion_5_lemma_suites():
    started = time.time()
    # derived identities on every enumerated DqRA of size <= 6
    for n in range(1, 7):
        for alg in enumerate_algebras(n, "dqra"):
            assert check_di(alg).ok
    # the frame validators assert the derived inverse/antitone laws and
    # the neg-compatibility laws; every enumerated frame must pass them
    for poset in all_posets(4):
        for frame in enumerate_frames(poset, "dinfl").frames:
            rep = validate_dinfl_frame(frame)
            assert rep.ok and not any(
                law.startswith("derived") for law in rep.laws_violated()
            )
        for frame in enumerate_frames(poset, "dqra").frames:
            rep = validate_dqra_frame(frame)
            assert rep.ok
    # preimage-meet interaction laws on complete homs of size <= 4
    from qra import join_irreducibles, principal_preimage_meet

    algebras = [
        v.algebra for e in build_catalog() if e.size <= 4 for v in e.variants
    ]
    for a in algebras:
        for b in algebras:
            for h in enumerate_homs(a, b):
                if not h.is_complete():
                    continue
                f = h.map
                for jb in range(b.size):
                    m = principal_preimage_meet(h, jb)
                    assert b.leq[jb, f[m]]
                    for x in range(a.size):
                        if b.leq[jb, f[x]]:
                            assert a.leq[m, x]
                for jb in join_irreducibles(b):
                    m = principal_preimage_meet(h, jb)
                    for x in range(a.size):
                        if a.leq[m, x]:
                            assert b.leq[jb, f[x]]
    report(5, "derived-identity suites with zero violations", started)


def test_criterion_6_morphism_duality():
    started = time.time()
    catalog = build_catalog()
    dqra = [v.algebra for e in catalog if e.size <= 4 for v in e.variants]
    dinfl = [e.base for e in catalog if e.size <= 4]
    homs = complete = 0
    for algebras in (dinfl, dqra):
        for a in algebras:
            for b in algebras:
                for h in enumerate_homs(a, b):
                    homs += 1
                    if not h.is_complete():
                        continue
                    complete += 1
                    fm = hom_dual(h)
                    assert validate_frame_morphism(fm).ok
                    if h.is_injective():
                        assert fm.is_surjective()
                    if h.is_surjective():
                        assert fm.is_order_embedding()
                    # and back across the other duality direction
                    back = frame_morphism_dual(fm)
                    assert validate_homomorphism(back).ok
                    if fm.is_surjective():
                        assert back.is_injective()
                    if fm.is_order_embedding():
                        assert back.is_surjective()
    assert homs >= 150 and complete >= 100
    report(6, f"{homs} homomorphisms, {complete} complete ones dualised, "
              "zero violations", started)


def test_criterion_7_priestley_layer():
    started = time.time()
    count = 0
    for entry in build_catalog():
        for variant in entry.variants:
            alg = variant.algebra
            pf = filter_frame(alg)
            rep = validate_pointed_frame(pf)
            assert rep.ok, entry.name
            identity = pf.frame.identity
            assert identity != 0 and identity != pf.frame.poset.carrier
            witness = priestley_roundtrip(alg)
            assert sorted(witness) == list(range(alg.size))
            count += 1
    assert count == 72
    report(7, f"filter-space round-trip for all {count} catalog algebras", started)


def test_criterion_8_subreduct_partition():
    started = time.time()
    families = {"A12": set(), "B8": set(), "none": set()}
    for struct in builtin_atom_structures():
        tag = family_criteria(struct)
        families[tag].add(struct.index)
        sub = max_proper_qra_subreduct(struct)
        if tag == "A12":
            assert sub is not None and sub.size == 12 and sub.frame_poset == "1+1+2"
        elif tag == "B8":
            assert sub is not None and sub.size == 8 and sub.frame_poset == "1+3"
        else:
            assert sub is None
    assert families["A12"] == set(FAMILY_A_EXPECTED)
    assert families["B8"] == set(FAMILY_B_EXPECTED)
    assert families["none"] == set(FAMILY_NONE_EXPECTED)
    from qra.ra import atom_structure

    s19 = max_proper_qra_subreduct(atom_structure(19))
    s30 = max_proper_qra_subreduct(atom_structure(30))
    assert algebra_iso(s19.algebra, s30.algebra) is not None
    report(8, "20/10/7 partition and subreduct agreement", started, limit=30)


def test_criterion_9_dq_validity_sweep():
    started = time.time()
    bases = 0
    for size in (1, 2, 3):
        for poset in all_posets(size):
            full = tuple([poset.carrier] * poset.n)
            for alpha in poset.automorphisms:
                betas = [None]
                for g in poset.order_reversing_bijections:
                    if all(g[g[i]] == i for i in range(poset.n)) and all(
                        alpha[g[alpha[i]]] == g[i] for i in range(poset.n)
                    ):
                        betas.append(tuple(g))
                for beta in betas:
                    base = RepBase(poset, full, tuple(alpha), beta)
                    dq = build_dq(base)
                    alg = dq.algebra
                    rep = (
                        validate_dqra(alg) if beta is not None else validate_dinfl(alg)
                    )
                    assert rep.ok, (poset.name, alpha, beta)
                    assert dq.relation_masks[alg.one] == dq.relation_masks[alg.one]
                    assert dq.relation_masks[alg.zero] == dq_zero_relation(dq)
                    assert classify(alg).cyclic == (
                        tuple(alpha) == tuple(range(poset.n))
                    )
                    bases += 1
    # the complement-shift identities for all relations on these bases
    checked = 0
    for size in (1, 2, 3):
        for poset in all_posets(size):
            full = tuple([poset.carrier] * poset.n)
            for alpha in poset.automorphisms:
                for g in poset.order_reversing_bijections:
                    if any(g[g[i]] != i for i in range(poset.n)):
                        continue
                    if any(alpha[g[alpha[i]]] != g[i] for i in range(poset.n)):
                        continue
                    base = RepBase(poset, full, tuple(alpha), tuple(g))
                    k = len(base.pairs)
                    gammas = (
                        base.alpha, base.beta,
                        tuple(base.alpha[base.beta[i]] for i in range(poset.n)),
                    )
                    for gamma in gammas:
                        for rel in range(1 << k):
                            left, right = check_complement_shift(base, gamma, rel)
                            assert left and right
                            checked += 1
    report(9, f"{bases} bases validated, {checked} complement-shift identities",
           started, limit=120)


def test_criterion_10_representation_sanity():
    started = time.time()
    cat = build_catalog()
    by_name = {e.name: e for e in cat}
    bool2 = by_name["D2_1_1"].variants[0].algebra
    cert = representation_search(bool2, 1)
    assert isinstance(cert, RepresentationCertificate)
    assert cert.base.points <= 1
    assert verify_certificate(bool2, cert)

    flagged = {e.name for e in cat if no_finite_rep_filter(e.base) is not None}
    must_be_infinite = {
        name for (name, _), (status, _) in REPRESENTABILITY.items()
        if status == "must_be_infinite"
    }
    finitely_represented = {
        name for (name, _), (status, _) in REPRESENTABILITY.items()
        if status == "finite"
    }
    assert {"D3_1_1", "D4_1_1", "D4_1_2"} <= flagged
    assert must_be_infinite <= flagged, sorted(must_be_infinite - flagged)
    assert not (flagged & finitely_represented), sorted(flagged & finitely_represented)
    report(10, "representation sanity and obstruction filter", started)
