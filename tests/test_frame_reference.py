"""validate_frame against the plain loop checker it replaced.

The reference below walks every tuple in lexicographic order with Python
loops over the composition bitmasks, as the frame laws are written, and
shares no array code with the validator.  Full reports are compared:
ok, every law, every witness, and their order.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qra import Poset, ValidationReport
from qra.bundled import bundled_frames
from qra.catalog import build_catalog
from qra.filters import filter_frame
from qra.frame import Frame, dual_frame, empty_frame, validate_frame
from qra.order import CENSUS_ORDER, NAMED_POSETS, all_posets, bits
from qra.represent import SearchOptions, dq_frame, iterate_bases
from qra.search import enumerate_frames


def reference_dinfl(frame: Frame) -> ValidationReport:
    rep = ValidationReport(subject=frame.name or "frame")
    n = frame.size
    poset = frame.poset
    poset.check_partial_order()
    up = poset.up
    comp = frame.comp
    identity = frame.identity
    tilde, minus = frame.tilde, frame.minus

    if not poset.is_upset(identity):
        xs = [x for x in bits(identity) if up[x] & ~identity]
        rep.add("identity_upset", (xs[0],) if xs else ())
    for x in range(n):
        left = 0
        right = 0
        for i in bits(identity):
            left |= comp[i][x]
            right |= comp[x][i]
        if left != up[x]:
            rep.add("identity_composition_left", (x, left, up[x]))
        if right != up[x]:
            rep.add("identity_composition_right", (x, right, up[x]))
    for x in range(n):
        for y in range(n):
            if not poset.is_upset(comp[x][y]):
                rep.add("composition_upset", (x, y))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = frame.compose_sets(comp[x][y], 1 << z)
                rhs = frame.compose_sets(1 << x, comp[y][z])
                if lhs != rhs:
                    rep.add("composition_associative", (x, y, z, lhs, rhs))
    for x in range(n):
        for y in range(n):
            cell = comp[x][y]
            for z in range(n):
                if ((cell >> tilde[z]) & 1) != ((comp[z][x] >> minus[y]) & 1):
                    rep.add("rotation", (x, y, z))
    for x in range(n):
        if not poset.leq(minus[tilde[x]], x):
            rep.add("linear_negation_collapse", (x, "tilde-minus"))
        if not poset.leq(tilde[minus[x]], x):
            rep.add("linear_negation_collapse", (x, "minus-tilde"))
    for x in range(n):
        if minus[tilde[x]] != x or tilde[minus[x]] != x:
            rep.add("derived_negation_inverse", (x,))
        for y in bits(up[x]):
            if not poset.leq(tilde[y], tilde[x]) or not poset.leq(minus[y], minus[x]):
                rep.add("derived_negation_antitone", (x, y))
    for x in range(n):
        for w in range(n):
            target = comp[x][w]
            for y in bits(up[x] ^ (1 << x)):
                if comp[y][w] & ~target:
                    rep.add("derived_composition_antitone_left", (x, y, w))
                if comp[w][y] & ~comp[w][x]:
                    rep.add("derived_composition_antitone_right", (x, y, w))
    return rep


def reference_frame(frame: Frame) -> ValidationReport:
    rep = reference_dinfl(frame)
    if frame.neg is None:
        return rep
    n = frame.size
    poset = frame.poset
    neg, tilde, minus = frame.neg, frame.tilde, frame.minus
    comp = frame.comp
    for x in range(n):
        if neg[neg[x]] != x:
            rep.add("neg_involution", (x,))
        for y in bits(poset.up[x]):
            if not poset.leq(neg[y], neg[x]):
                rep.add("neg_antitone", (x, y))
    for x in range(n):
        for y in range(n):
            cell = comp[x][y]
            twisted = comp[neg[tilde[y]]][neg[tilde[x]]]
            for z in range(n):
                if ((cell >> minus[z]) & 1) != ((twisted >> neg[z]) & 1):
                    rep.add("neg_rotation", (x, y, z))
    for x in range(n):
        if neg[tilde[x]] != minus[neg[x]]:
            rep.add("derived_neg_tilde_compat", (x,))
        if neg[minus[x]] != tilde[neg[x]]:
            rep.add("derived_neg_minus_compat", (x,))
    return rep


def assert_same_report(frame: Frame):
    got, want = validate_frame(frame), reference_frame(frame)
    assert (got.subject, got.ok, got.failures) == (want.subject, want.ok, want.failures), \
        frame.name
    return got


def _catalog_algebras():
    for entry in build_catalog():
        yield entry.base
        for variant in entry.variants:
            yield variant.algebra


def test_bundled_frames_match_reference():
    frames = bundled_frames()
    assert frames
    for frame in frames.values():
        assert_same_report(frame)
        if frame.neg is not None:
            assert_same_report(frame.without_neg())


def test_dual_and_filter_frames_of_the_catalogue_match_reference():
    count = 0
    for alg in _catalog_algebras():
        assert assert_same_report(dual_frame(alg)).ok
        assert assert_same_report(filter_frame(alg).frame).ok
        count += 1
    assert count == 64 + 72


def test_enumerated_frames_match_reference():
    seen = 0
    for name in CENSUS_ORDER:
        poset = NAMED_POSETS[name]
        if poset.n > 4:
            continue
        for signature in ("dinfl", "dqra"):
            for frame in enumerate_frames(poset, signature).frames:
                assert assert_same_report(frame).ok
                seen += 1
    assert seen > 0


def test_dq_frames_of_two_point_bases_match_reference():
    bases = [b for b in iterate_bases(2, True, SearchOptions()) if b.points == 2]
    assert bases
    for base in bases:
        assert assert_same_report(dq_frame(base)).ok


def test_empty_and_one_point_frames_match_reference():
    assert assert_same_report(empty_frame("empty")).ok
    one = Frame(Poset((1,)), 1, [[1]], [0], [0], neg=[0], name="one")
    assert assert_same_report(one).ok
    assert assert_same_report(one.without_neg()).ok
    # the one-point frame with empty composition breaks the identity laws
    bad = Frame(Poset((1,)), 1, [[0]], [0], [0], neg=[0], name="one-empty")
    assert not assert_same_report(bad).ok


def _mutants(frame: Frame, rng: random.Random):
    """A flipped composition bit, swapped tilde entries, a non-involutive
    neg and a non-upset cell, each where the frame allows it."""
    n = frame.size
    comp = [list(row) for row in frame.comp]
    x, y, w = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    comp[x][y] ^= 1 << w
    yield Frame(frame.poset, frame.identity, comp, frame.tilde, frame.minus,
                neg=frame.neg, name="flipped bit")
    if n >= 2:
        i, j = rng.sample(range(n), 2)
        tilde = list(frame.tilde)
        tilde[i], tilde[j] = tilde[j], tilde[i]
        yield Frame(frame.poset, frame.identity, frame.comp, tilde, frame.minus,
                    neg=frame.neg, name="swapped tilde")
    if n >= 3:
        i, j, k = rng.sample(range(n), 3)
        neg = list(range(n))
        neg[i], neg[j], neg[k] = j, k, i
        yield frame.with_neg(neg, name="three-cycle neg")
    lower = [x for x in range(n) if frame.poset.up[x] != 1 << x]
    if lower:
        comp = [list(row) for row in frame.comp]
        comp[rng.randrange(n)][rng.randrange(n)] = 1 << rng.choice(lower)
        yield Frame(frame.poset, frame.identity, comp, frame.tilde, frame.minus,
                    neg=frame.neg, name="non-upset cell")


def test_seeded_mutants_match_reference():
    rng = random.Random(20240607)
    sources = list(bundled_frames().values())
    sources += [dual_frame(a) for a in _catalog_algebras() if a.size >= 4][:40]
    kinds = set()
    for frame in sources:
        if frame.size == 0:
            continue
        for _ in range(3):
            for mutant in _mutants(frame, rng):
                if not assert_same_report(mutant).ok:
                    kinds.add(mutant.name)
    assert kinds == {"flipped bit", "swapped tilde", "three-cycle neg", "non-upset cell"}


POSETS = all_posets(5)


@st.composite
def random_frames(draw):
    poset = draw(st.sampled_from(POSETS))
    n = poset.n
    cell = st.integers(0, (1 << n) - 1)
    identity = draw(cell)
    comp = [[draw(cell) for _ in range(n)] for _ in range(n)]
    tilde = draw(st.permutations(range(n)))
    minus = draw(st.permutations(range(n)))
    neg = draw(st.none() | st.permutations(range(n)))
    return Frame(poset, identity, comp, tilde, minus, neg=neg, name="random")


@settings(max_examples=150, deadline=None)
@given(random_frames())
def test_random_frames_match_reference(frame):
    assert_same_report(frame)


@pytest.mark.parametrize("points", [2, 3])
def test_random_dq_frame_mutants_match_reference(points):
    rng = random.Random(points)
    bases = [b for b in iterate_bases(points, True, SearchOptions()) if b.points == points]
    for base in rng.sample(bases, min(4, len(bases))):
        frame = dq_frame(base)
        for mutant in _mutants(frame, rng):
            assert_same_report(mutant)
