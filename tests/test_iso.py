"""The shared isomorphism search against brute force over all permutations."""

import random
from itertools import permutations, product

import pytest

from qra import (
    algebra_automorphisms,
    algebra_iso,
    all_posets,
    build_catalog,
    bundled_frames,
    complex_algebra,
    dual_frame,
    frame_iso,
    roundtrip_algebra,
    roundtrip_frame,
)
from qra.errors import InternalCheckError
from qra.iso import Structure, check_witness, isomorphisms, mismatch
from qra.order import bits, mask_of


def _preserves_order(p, f, reverse=False):
    return all(
        p.leq(i, j) == (p.leq(f[j], f[i]) if reverse else p.leq(f[i], f[j]))
        for i in range(p.n) for j in range(p.n)
    )


def _is_algebra_iso(a, b, f):
    n = a.size
    pairs = [(a.tilde, b.tilde), (a.minus, b.minus)]
    if a.neg is not None:
        pairs.append((a.neg, b.neg))
    return (
        f[a.one] == b.one
        and all(
            a.leq[i, j] == b.leq[f[i], f[j]]
            and f[a.product[i, j]] == b.product[f[i], f[j]]
            for i in range(n) for j in range(n)
        )
        and all(f[ua[i]] == ub[f[i]] for ua, ub in pairs for i in range(n))
    )


def _is_frame_iso(w1, w2, f):
    def move(mask):
        return mask_of(f[i] for i in bits(mask))

    n = w1.size
    pairs = [(w1.tilde, w2.tilde), (w1.minus, w2.minus)]
    if w1.neg is not None:
        pairs.append((w1.neg, w2.neg))
    return (
        move(w1.identity) == w2.identity
        and all(move(w1.poset.up[x]) == w2.poset.up[f[x]] for x in range(n))
        and all(
            move(w1.comp[x][y]) == w2.comp[f[x]][f[y]]
            for x in range(n) for y in range(n)
        )
        and all(f[u1[x]] == u2[f[x]] for u1, u2 in pairs for x in range(n))
    )


def _catalog_algebras(max_size):
    out = []
    for entry in build_catalog():
        if entry.size <= max_size:
            out.append(entry.base)
            out.extend(v.algebra for v in entry.variants)
    return out


def test_poset_maps_match_brute_force():
    for p in all_posets(5):
        perms = list(permutations(range(p.n)))
        assert list(p.automorphisms) == [f for f in perms if _preserves_order(p, f)]
        assert list(p.order_reversing_bijections) == [
            f for f in perms if _preserves_order(p, f, reverse=True)
        ]


def test_algebra_automorphisms_match_brute_force():
    for alg in _catalog_algebras(4):
        perms = permutations(range(alg.size))
        assert algebra_automorphisms(alg) == [
            f for f in perms if _is_algebra_iso(alg, alg, f)
        ], alg.name


def test_algebra_iso_returns_least_witness():
    rng = random.Random(11)
    for alg in _catalog_algebras(5):
        perm = list(range(alg.size))
        rng.shuffle(perm)
        scrambled = alg.relabel(perm)
        witnesses = [
            list(f) for f in permutations(range(alg.size))
            if _is_algebra_iso(alg, scrambled, f)
        ]
        assert perm in witnesses
        assert algebra_iso(alg, scrambled) == witnesses[0], alg.name


def test_frame_iso_returns_least_witness():
    rng = random.Random(12)
    for name, frame in bundled_frames().items():
        perm = list(range(frame.size))
        rng.shuffle(perm)
        scrambled = frame.relabel(perm)
        witnesses = [
            list(f) for f in permutations(range(frame.size))
            if _is_frame_iso(frame, scrambled, f)
        ]
        assert perm in witnesses
        assert frame_iso(frame, scrambled) == witnesses[0], name
        assert frame_iso(frame.without_neg(), scrambled.without_neg()) == witnesses[0]


@pytest.mark.parametrize("name, part", [("D4_2_2", "the unit"), ("D6_2_2", "the product")])
def test_wrong_roundtrip_witness_names_the_broken_part(name, part):
    alg = next(e for e in build_catalog() if e.name == name).base
    back = complex_algebra(dual_frame(alg))
    psi = roundtrip_algebra(alg)
    check_witness(alg.structure, back.structure, psi, "round-trip witness")
    # the witness composed with an order automorphism that is not an
    # algebra automorphism keeps the order and breaks a later part
    autos = algebra_automorphisms(alg)
    wrong = [
        [psi[g[a]] for a in range(alg.size)]
        for g in alg.order_poset.automorphisms if g not in autos
    ]
    assert wrong
    for f in wrong:
        assert mismatch(alg.structure, back.structure, f) == part
        with pytest.raises(InternalCheckError, match=f"does not preserve {part}$"):
            check_witness(alg.structure, back.structure, f, "round-trip witness")
    swapped = psi[:]
    swapped[alg.bottom], swapped[alg.top] = swapped[alg.top], swapped[alg.bottom]
    assert mismatch(alg.structure, back.structure, swapped) == "the order"
    assert mismatch(alg.structure, back.structure, psi[:-1]) == "the carrier"


def test_wrong_frame_witness_names_the_broken_part():
    frame = bundled_frames()["W4_2_3"]
    back = dual_frame(complex_algebra(frame))
    image = roundtrip_frame(frame)
    # swapping the identity point with the other point keeps the (discrete)
    # order but not the identity set
    wrong = [image[1], image[0]]
    with pytest.raises(InternalCheckError, match="does not preserve the identity set$"):
        check_witness(frame.structure, back.structure, wrong, "frame witness")
    assert mismatch(frame.structure, back.without_neg().structure, image) == "neg"


def _circulant(rng, n, names):
    """A random structure with the named parts that x -> x + 1 (mod n)
    preserves: colour refinement leaves every element alike, so only the
    search's own checks can tell the maps apart."""
    def offsets():
        return rng.sample(range(n), rng.randrange(n + 1))

    def shifted(x, gaps):
        return mask_of((x + s) % n for s in gaps)

    near, by_gap = offsets(), [offsets() for _ in range(n)]
    jump, step = [rng.randrange(n) for _ in range(n)], rng.randrange(n)
    parts = [
        ("r", "rel", 2, [shifted(x, near) for x in range(n)]),
        ("t", "rel", 3, [shifted(x, by_gap[(y - x) % n]) for x in range(n) for y in range(n)]),
        ("p", "op", 2, [(x + jump[(y - x) % n]) % n for x in range(n) for y in range(n)]),
        ("u", "op", 1, [(x + step) % n for x in range(n)]),
    ]
    return Structure(n, [part for part in parts if part[0] in names])


def _relabelled(s, g):
    """The structure s carried along the bijection x -> g[x]."""
    parts = []
    for name, kind, arity, table in s.parts:
        cells = list(product(range(s.n), repeat=arity - 1 if kind == "rel" else arity))
        moved = [None] * len(cells)
        for t, value in zip(cells, table):
            image = mask_of(g[z] for z in bits(value)) if kind == "rel" else g[value]
            moved[cells.index(tuple(g[x] for x in t))] = image
        parts.append((name, kind, arity, moved))
    return Structure(s.n, parts)


def _brute_isomorphisms(s1, s2):
    """Every bijection carrying s1 onto s2, found by trying all of them."""
    tables = [part[3] for part in s2.parts]
    return [g for g in permutations(range(s1.n))
            if [part[3] for part in _relabelled(s1, g).parts] == tables]


def test_search_matches_brute_force_where_colours_do_not_help():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.choice([3, 4, 5])
        names = rng.sample("rtpu", rng.randint(1, 4))
        s1 = _circulant(rng, n, names)
        perm = list(range(n))
        rng.shuffle(perm)
        for s2 in (s1, _relabelled(s1, perm), _circulant(rng, n, names)):
            expected = _brute_isomorphisms(s1, s2)
            assert isomorphisms(s1, s2) == expected
            assert isomorphisms(s1, s2, first=True) == expected[:1]
            assert all(mismatch(s1, s2, g) is None for g in expected)
