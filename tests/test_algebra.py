import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qra import (
    FinAlgebra,
    algebra_iso,
    check_di,
    classify,
    commutative_to_qra,
    derived_ops,
    join_irreducibles,
    kappa,
    kappa_map,
    meet_irreducibles,
    validate_dinfl,
    validate_dqra,
)
from qra.catalog import build_catalog
from qra.errors import DomainError, PreconditionError, SignatureError, StructuralError

from conftest import sugihara4


def test_trivial_algebra_validates():
    one = FinAlgebra([[1]], [[0]], 0, [0], [0], neg=[0])
    assert validate_dinfl(one).ok
    assert validate_dqra(one).ok
    assert check_di(one).ok


def test_two_element_boolean_is_a_dqra(bool2):
    rep = validate_dqra(bool2)
    assert rep.ok
    assert "complete and perfect" in " ".join(rep.notes)


def test_every_injective_unit_choice_on_two_elements():
    # exhaustive over the sixteen 2x2 product tables: the validator must
    # flag the unit law exactly when 1 is not a two-sided unit
    leq = [[1, 1], [0, 1]]
    for table in itertools.product(range(2), repeat=4):
        prod = [[table[0], table[1]], [table[2], table[3]]]
        alg = FinAlgebra(leq, prod, 1, [1, 0], [1, 0])
        rep = validate_dinfl(alg)
        unit_ok = prod[1][0] == 0 and prod[1][1] == 1 and prod[0][1] == 0
        flagged = any(law.startswith("monoid_unit") for law, _ in rep.failures)
        assert flagged == (not unit_ok)


def test_swapped_product_names_the_unit_law():
    alg = FinAlgebra([[1, 1], [0, 1]], [[1, 1], [1, 0]], 1, [1, 0], [1, 0])
    rep = validate_dinfl(alg)
    assert not rep.ok
    assert any(law.startswith("monoid_unit") for law in rep.laws_violated())


def test_missing_joins_and_meets_are_law_failures_in_pair_order():
    # the bowtie 0, 1 < 2, 3: the pairs (0,1) and (2,3) have neither a
    # join nor a meet, and there is no bottom and no top
    leq = [[1, 0, 1, 1], [0, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]]
    alg = FinAlgebra(leq, [[0] * 4] * 4, 0, [0, 1, 2, 3], [0, 1, 2, 3])
    rep = validate_dqra(alg.with_neg([0, 1, 2, 3]))
    assert [f for f in rep.failures if f[0].startswith("lattice")] == [
        ("lattice_join_exists", (0, 1)), ("lattice_meet_exists", (0, 1)),
        ("lattice_join_exists", (2, 3)), ("lattice_meet_exists", (2, 3)),
    ]
    for what in ("join", "meet"):
        with pytest.raises(PreconditionError, match=rf"^{what} of \(0,1\) does not exist$"):
            getattr(alg, f"{what}_table")
    for end in ("bottom", "top"):
        with pytest.raises(PreconditionError, match="lattice has no"):
            getattr(alg, end)


def test_structural_errors_are_not_law_failures():
    with pytest.raises(StructuralError):
        FinAlgebra([[1, 1], [0, 1]], [[0, 0]], 1, [1, 0], [1, 0])
    with pytest.raises(StructuralError):
        FinAlgebra([[1, 1], [0, 1]], [[0, 0], [0, 3]], 1, [1, 0], [1, 0])
    with pytest.raises(StructuralError):
        FinAlgebra([[1, 1], [0, 1]], [[0, 0], [0, 1]], 1, [0, 0], [1, 0])


def test_sugihara_chain_validates(sugihara3):
    assert validate_dqra(sugihara3).ok
    flags = classify(sugihara3)
    assert flags.cyclic and flags.commutative and flags.symmetric and flags.odd


def test_de_morgan_failure_has_witness(lukasiewicz3):
    broken = lukasiewicz3.with_neg([0, 1, 2])  # identity is involutive but
    rep = validate_dqra(broken)  # breaks the De Morgan meet law on a chain
    assert not rep.ok
    assert "de_morgan_meet" in rep.laws_violated() or "de_morgan_product" in rep.laws_violated()


def test_neg_missing_is_a_signature_error(sugihara3):
    with pytest.raises(SignatureError):
        validate_dqra(sugihara3.without_neg())
    with pytest.raises(SignatureError):
        check_di(sugihara3.without_neg())


def test_derived_ops_examples(bool2, sugihara3):
    d2 = derived_ops(bool2)
    assert d2.zero == 0  # bottom
    d3 = derived_ops(sugihara3)
    assert d3.zero == sugihara3.one  # odd chain
    # x + 0 = x whenever the unit and involutions behave
    for alg in (bool2, sugihara3):
        d = derived_ops(alg)
        for a in range(alg.size):
            assert int(d.plus[a, d.zero]) == a


def test_check_di_on_catalog():
    for entry in build_catalog():
        for variant in entry.variants:
            assert check_di(variant.algebra).ok, entry.name


def test_classify_examples():
    one = FinAlgebra([[1]], [[0]], 0, [0], [0], neg=[0])
    flags = classify(one)
    assert flags.cyclic and flags.commutative and flags.symmetric and flags.odd
    from qra.catalog import catalog_lookup

    entry = catalog_lookup("D4_2_1_2")
    other = [v for v in entry.variants if v.neg_desc != "~"][0]
    flags = classify(other.algebra)
    assert flags.cyclic and flags.commutative and flags.symmetric is False


def test_irreducibles_and_kappa(bool2, lukasiewicz4):
    assert join_irreducibles(bool2) == [1]
    assert meet_irreducibles(bool2) == [0]
    assert kappa(bool2, 1) == 0
    assert join_irreducibles(lukasiewicz4) == [1, 2, 3]
    with pytest.raises(DomainError):
        kappa(lukasiewicz4, 0)
    # 2x2 diamond: each atom maps to the other coatom, by the definition
    diamond = FinAlgebra(
        [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]],
        [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]],
        3, [3, 2, 1, 0], [3, 2, 1, 0],
    )
    assert sorted(join_irreducibles(diamond)) == [1, 2]
    kmap = kappa_map(diamond)
    assert kmap == {1: 2, 2: 1}
    # brute-force the definition independently
    for j in join_irreducibles(diamond):
        others = [a for a in range(4) if not diamond.leq[j, a]]
        acc = diamond.bottom
        for a in others:
            acc = int(diamond.join_table[acc, a])
        assert acc == kmap[j]


def test_kappa_is_order_isomorphism_on_catalog():
    for entry in build_catalog():
        kappa_map(entry.base)  # raises if not a bijection or not monotone


def test_commutative_to_qra(sugihara3):
    plain = sugihara3.without_neg()
    extended = commutative_to_qra(plain)
    assert validate_dqra(extended).ok
    with pytest.raises(SignatureError):
        commutative_to_qra(extended)
    one = FinAlgebra([[1]], [[0]], 0, [0], [0])
    assert validate_dqra(commutative_to_qra(one)).ok


def test_commutative_to_qra_on_all_commutative_catalog_algebras():
    for entry in build_catalog():
        if classify(entry.base).commutative:
            assert validate_dqra(commutative_to_qra(entry.base)).ok, entry.name


def test_noncommutative_rejected():
    s4 = sugihara4()
    prod = s4.product.copy()
    prod.setflags(write=True)
    # sugihara4 is commutative; build a noncommutative one from the catalog
    from qra.catalog import catalog_lookup

    noncomm = catalog_lookup("D6_2_5").base
    with pytest.raises(PreconditionError):
        commutative_to_qra(noncomm)


def test_algebra_iso_examples(sugihara3, lukasiewicz3):
    assert algebra_iso(sugihara3, sugihara3) == [0, 1, 2]
    assert algebra_iso(sugihara3, lukasiewicz3) is None
    with pytest.raises(SignatureError):
        algebra_iso(sugihara3, lukasiewicz3.without_neg())


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(5))))
def test_algebra_iso_finds_relabellings(perm):
    from qra.catalog import catalog_lookup

    alg = catalog_lookup("D5_1_7").variants[0].algebra
    scrambled = alg.relabel(list(perm))
    witness = algebra_iso(alg, scrambled)
    assert witness is not None
    assert [perm[i] for i in range(5)] == [witness[i] for i in range(5)] or \
        algebra_iso(scrambled, alg) is not None


def test_antitone_and_meet_join_duality_on_catalog():
    for entry in build_catalog():
        alg = entry.base
        n = alg.size
        tilde = alg.tilde
        for a in range(n):
            for b in range(n):
                assert bool(alg.leq[a, b]) == bool(alg.leq[tilde[b], tilde[a]])
                lhs = int(alg.meet_table[a, b])
                rhs = int(alg.minus[alg.join_table[tilde[a], tilde[b]]])
                assert lhs == rhs


def test_catalog_diagram_leaving_a_cell_open_is_an_error():
    from qra.catalog import _diagram_algebra

    # D4_1_1 without its "ab" label: nothing pins the product of b with itself
    with pytest.raises(StructuralError, match=r"D4_1_1: .*\(1,1\) open"):
        _diagram_algebra("D4_1_1", [(0, 1), (1, 2), (2, 3)], ["", "b", "a", "1"], "ioii")
