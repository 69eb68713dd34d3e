import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qra.errors import StructuralError
from qra.order import NAMED_POSETS, Poset, all_posets, bits, mask_of


def test_chain_and_antichain_basics():
    c4 = Poset.chain(4)
    assert c4.leq(0, 3) and not c4.leq(3, 0)
    assert len(c4.upsets) == 5
    a2 = Poset.antichain(2)
    assert len(a2.upsets) == 4
    assert a2.is_self_dual and c4.is_self_dual


def test_upsets_are_exactly_the_upward_closed_sets():
    for name in ("2x2", "bowtie", "N", "1+2", "X"):
        poset = NAMED_POSETS[name]
        brute = [
            m for m in range(1 << poset.n)
            if all(poset.up[i] & ~m == 0 for i in bits(m))
        ]
        assert sorted(poset.upsets) == sorted(brute)
        assert poset.count_upsets() == len(brute)


def test_capped_upset_count_over_all_five_point_posets():
    for poset in all_posets(5):
        brute = [
            m for m in range(1 << poset.n)
            if all(poset.up[i] & ~m == 0 for i in bits(m))
        ]
        assert poset.upsets == tuple(sorted(brute, key=lambda m: (bin(m).count("1"), m)))
        for cap in (1, 3, 8, None):
            want = len(brute) if cap is None else min(len(brute), cap + 1)
            assert poset.count_upsets(cap) == want, (poset.up, cap)


def test_partial_order_rejected_when_broken():
    with pytest.raises(StructuralError):
        Poset.from_matrix([[1, 1], [1, 1]])  # not antisymmetric
    with pytest.raises(StructuralError):
        Poset.from_matrix([[0, 1], [0, 1]])  # not reflexive


def test_named_poset_upset_counts():
    expected = {
        "1": 2, "2": 3, "1+1": 4, "3": 4, "4": 5, "1+2": 6, "2x2": 6,
        "5": 6, "bowtie": 7, "6": 7, "1+1+1": 8, "1+3": 8, "N": 8, "X": 8,
        "P": 8, "d2x2": 8, "7": 8,
    }
    for name, count in expected.items():
        assert len(NAMED_POSETS[name].upsets) == count, name


def test_poset_census_small():
    counts = {}
    for poset in all_posets(4):
        counts[poset.n] = counts.get(poset.n, 0) + 1
    assert counts == {1: 1, 2: 2, 3: 5, 4: 16}


def test_census_self_duality_flags():
    by_size = {}
    for poset in all_posets(3):
        by_size.setdefault(poset.n, []).append(poset)
    assert all(p.is_self_dual for p in by_size[1] + by_size[2])
    size3 = by_size[3]
    assert sum(1 for p in size3 if p.is_self_dual) == 3  # chain, 1+2, antichain


def test_automorphisms_and_reversals():
    assert len(NAMED_POSETS["2x2"].automorphisms) == 2
    assert len(NAMED_POSETS["bowtie"].automorphisms) == 4
    assert len(NAMED_POSETS["1+1+1"].automorphisms) == 6
    assert len(NAMED_POSETS["5"].order_reversing_bijections) == 1
    assert NAMED_POSETS["N"].is_self_dual
    v_shape = Poset.from_matrix([[1, 1, 1], [0, 1, 0], [0, 0, 1]])
    assert not v_shape.is_self_dual


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(5))))
def test_canonical_key_is_relabelling_invariant(perm):
    poset = NAMED_POSETS["X"]
    assert poset.relabel(perm).canonical_key == poset.canonical_key


def test_mask_helpers():
    assert mask_of([0, 3]) == 0b1001
    assert list(bits(0b1010)) == [1, 3]
