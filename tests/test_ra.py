import numpy as np
import pytest

from qra import (
    algebra_iso,
    builtin_atom_structures,
    classify,
    dual_frame,
    family_criteria,
    max_proper_qra_subreduct,
    ra_from_atoms,
    symmetric_subreduct_check,
    validate_dqra,
)
from qra.catalog import build_catalog
from qra.errors import PreconditionError, StructuralError
from qra.order import bits
from qra.ra import (
    FAMILY_A_EXPECTED,
    FAMILY_B_EXPECTED,
    FAMILY_NONE_EXPECTED,
    atom_structure,
    closed_subsets,
    relation_algebra_checks,
    small_symmetric_ra,
    subreduct_annotation,
)


def test_builtin_examples():
    s1 = atom_structure(1)
    # atoms are ordered 1, a, r, s
    assert s1.comp[1][1] == 0b0001  # a.a = 1
    assert s1.comp[1][2] == 0b0100  # a.r = r
    assert s1.comp[2][3] == 0b1111  # r.s = top
    s13 = atom_structure(13)
    assert s13.comp[1][2] == 0b0110  # a.r = a+r
    assert s13.comp[2][1] == 0b0010  # r.a = a (noncommutative)
    s18 = atom_structure(18)
    assert s18.comp[1][1] == 0b0001  # a.a = 1
    assert s18.comp[1][2] == 0b1000  # a.r = s


def test_all_lifts_are_valid_cyclic_nonsymmetric_dqras():
    for struct in builtin_atom_structures():
        alg = ra_from_atoms(struct)
        flags = classify(alg)
        assert flags.cyclic and flags.symmetric is False, struct.index
        # complement-converse of the atom a keeps the other three atoms
        a = 0b0010
        assert int(alg.tilde[a]) == 0b1101


def test_broken_identity_row_is_rejected():
    struct = atom_structure(1)
    comp = [list(row) for row in struct.comp]
    comp[0][2] = 0b0001  # 1.r must be {r}
    from qra.ra import AtomStructure4

    bad = AtomStructure4(index=99, comp=tuple(tuple(r) for r in comp))
    with pytest.raises(StructuralError):
        ra_from_atoms(bad)


def test_family_partition_matches_published_split():
    families = {"A12": set(), "B8": set(), "none": set()}
    for struct in builtin_atom_structures():
        families[family_criteria(struct)].add(struct.index)
    assert families["A12"] == set(FAMILY_A_EXPECTED)
    assert families["B8"] == set(FAMILY_B_EXPECTED)
    assert families["none"] == set(FAMILY_NONE_EXPECTED)
    assert (len(families["A12"]), len(families["B8"]), len(families["none"])) == (20, 10, 7)


def test_subreducts_agree_with_criteria():
    for struct in builtin_atom_structures():
        family = family_criteria(struct)
        sub = max_proper_qra_subreduct(struct)
        if family == "none":
            assert sub is None
        elif family == "A12":
            assert sub.size == 12 and sub.frame_poset == "1+1+2"
            assert validate_dqra(sub.algebra).ok
        else:
            assert sub.size == 8 and sub.frame_poset == "1+3"
            assert sub.commutative
            assert validate_dqra(sub.algebra).ok


def test_a12_lattice_shape():
    sub = max_proper_qra_subreduct(atom_structure(1))
    # 2 x 2 x 3 lattice: twelve elements, join-irreducibles form 1+1+2
    assert sub.size == 12
    frame = dual_frame(sub.algebra)
    assert frame.size == 4


def test_19_and_30_subreducts_isomorphic():
    s19 = max_proper_qra_subreduct(atom_structure(19))
    s30 = max_proper_qra_subreduct(atom_structure(30))
    assert algebra_iso(s19.algebra, s30.algebra) is not None


def test_annotations():
    assert "weakening" in subreduct_annotation(14)
    assert subreduct_annotation(13).startswith("representable")
    assert subreduct_annotation(16) == "open"
    assert subreduct_annotation(3) == "no proper qRA subreduct"


def test_closed_subsets_contain_unit_and_are_closed():
    alg = ra_from_atoms(atom_structure(7), check=False)
    for mask in closed_subsets(alg):
        assert (mask >> alg.one) & 1
        for x in bits(mask):
            assert (mask >> int(alg.tilde[x])) & 1
            for y in bits(mask):
                assert (mask >> int(alg.product[x, y])) & 1
                assert (mask >> int(alg.join_table[x, y])) & 1


def brute_force_closed_subsets(alg):
    """Every subset containing 1 closed under tilde, join and product, found
    by testing all of them at once against the numpy tables."""
    n = alg.size
    masks = np.arange(1 << n)
    masks = masks[(masks >> alg.one) & 1 == 1]
    member = (masks[:, None] >> np.arange(n)) & 1 == 1
    pairs = member[:, :, None] & member[:, None, :]
    closed = ~(member & ~member[:, alg.tilde]).any(axis=1)
    for table in (alg.join_table, alg.product):
        closed &= ~(pairs & ~member[:, table]).any(axis=(1, 2))
    return masks[closed].tolist()


def test_closed_subsets_match_brute_force():
    algebras = [ra_from_atoms(atom_structure(i), check=False) for i in (1, 13)]
    for entry in build_catalog():
        algebras += [entry.base] + [v.algebra for v in entry.variants]
    for alg in algebras:
        assert closed_subsets(alg) == brute_force_closed_subsets(alg), alg.name


def test_symmetric_ras_have_no_proper_subreducts():
    for rule in ("trivial", "group", "dense"):
        alg, conv = small_symmetric_ra(rule)
        assert symmetric_subreduct_check(alg, conv)
    # the dense 4-element one has exactly its closed subsets complement-closed
    alg, conv = small_symmetric_ra("dense")
    assert all(
        all((m >> int(alg.neg[x])) & 1 for x in bits(m)) for m in closed_subsets(alg)
    )


def test_symmetric_check_rejects_nonsymmetric():
    alg = ra_from_atoms(atom_structure(1), check=False)

    def conv(u):
        out = 0
        for i in bits(u):
            out |= 1 << {0: 0, 1: 1, 2: 3, 3: 2}[i]
        return out

    with pytest.raises(PreconditionError):
        symmetric_subreduct_check(alg, conv)


def test_relation_algebra_law_checks():
    alg = ra_from_atoms(atom_structure(5), check=False)

    def conv(u):
        out = 0
        for i in bits(u):
            out |= 1 << {0: 0, 1: 1, 2: 3, 3: 2}[i]
        return out

    assert relation_algebra_checks(alg, conv).ok


def _direct_lift(comp, converse):
    """The atom-set algebra with the product lifted pair of atoms by pair."""
    n = 1 << len(comp)
    product = []
    for u in range(n):
        product.append([])
        for v in range(n):
            acc = 0
            for i in bits(u):
                for j in bits(v):
                    acc |= comp[i][j]
            product[-1].append(acc)
    leq = [[(u & ~v) == 0 for v in range(n)] for u in range(n)]
    tilde = [(n - 1) ^ sum(1 << converse[i] for i in bits(u)) for u in range(n)]
    neg = [(n - 1) ^ u for u in range(n)]
    return leq, product, tilde, neg


def _assert_lift(alg, comp, converse):
    leq, product, tilde, neg = _direct_lift(comp, converse)
    assert alg.one == 1
    assert alg.leq.tolist() == leq
    assert alg.product.tolist() == product
    assert alg.tilde.tolist() == tilde and alg.minus.tolist() == tilde
    assert alg.neg.tolist() == neg


def test_atom_lifts_equal_the_direct_lift():
    for struct in builtin_atom_structures():
        _assert_lift(ra_from_atoms(struct), struct.comp,
                     [struct.converse_atom(i) for i in range(4)])
    rules = {
        "trivial": ((0b1,),),
        "group": ((0b01, 0b10), (0b10, 0b01)),
        "dense": ((0b01, 0b10), (0b10, 0b11)),
    }
    for rule, comp in rules.items():
        alg, conv = small_symmetric_ra(rule)
        _assert_lift(alg, comp, list(range(len(comp))))
        assert all(conv(u) == u for u in range(alg.size))
