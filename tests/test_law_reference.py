"""validate_dinfl against a plain reference taken from the definitions.

The reference below uses Python loops over all tuples and nothing from
``qra`` beyond the tables, so it shares no shortcut with the validator:
no join-prime test, no adjunction, no restriction to join-irreducible rows.
It covers transitivity, distributivity, associativity and both directions
of the residuation biconditional; the tests compare the set of these laws
that the validator reports violated with the set the reference finds.

A second reference keeps the validator as it was before distributivity
became one test over word rows, associativity a test on J x J x J, and the
unit and counit checks of the adjunction were cut down to the
irreducibles: a join-prime scan per join-irreducible, a row loop per
element of the associativity domain and the adjunction over every pair.
It also scans the negation laws, the De Morgan ones included, over every
pair, where ``validate_dqra`` reads them off the cover pairs and J x J.
Full reports, witnesses in order, are compared with it.

A third keeps the adjunction check as it was before lemma 6 of
``qra.algebra``, with monotonicity on every cover pair.  On a distributive
lattice with anti-isomorphic linear negations ``_adjoint`` now tests the
join extension of the lemma instead, and full reports under the two are
compared on the catalogue, its seeded mutants and every small Dq(E).
"""

import itertools
import random

import numpy as np
import pytest

import qra.algebra
from qra import FinAlgebra, Poset, RepBase, build_dq, derived_ops, validate_dinfl, validate_dqra
from qra.algebra import (
    ValidationReport,
    _adjoint,
    _validate_dinfl,
    _join_prime_failures,
    _joins_extend,
    _mismatches,
    _residuals,
    _residuation_witnesses,
    _witnesses,
    plus_table,
)
from qra.catalog import build_catalog, catalog_lookup
from qra.errors import InternalCheckError, PreconditionError
from qra.frame import (
    Frame,
    complex_algebra,
    dual_frame,
    frame_iso,
    roundtrip_algebra,
    validate_frame,
)
from qra.order import CENSUS_ORDER, NAMED_POSETS, all_posets, bits, row_blocks
from qra.represent import SEARCH_UPSET_CAP, DqAlgebra, SearchOptions, iterate_bases
from qra.search import enumerate_frames

COVERED = {
    "order_transitive", "lattice_distributive", "monoid_associative",
    "residuation_right", "residuation_left",
}


def reference_laws(alg: FinAlgebra) -> set[str]:
    n = alg.size
    R = range(n)
    leq = alg.leq.tolist()
    p = alg.product.tolist()
    t, m = alg.tilde.tolist(), alg.minus.tolist()
    out = set()
    if any(leq[a][b] and leq[b][c] and not leq[a][c] for a in R for b in R for c in R):
        out.add("order_transitive")
    reflexive = all(leq[a][a] for a in R)
    antisymmetric = not any(a != b and leq[a][b] and leq[b][a] for a in R for b in R)
    if out or not (reflexive and antisymmetric):
        return out  # every other law presupposes a partial order
    up = [frozenset(b for b in R if leq[a][b]) for a in R]
    down = [frozenset(b for b in R if leq[b][a]) for a in R]

    def least(bounds):  # the bound below every other bound, if any
        return next((x for x in bounds if bounds <= up[x]), None)

    def greatest(bounds):
        return next((x for x in bounds if bounds <= down[x]), None)

    join = [[least(up[a] & up[b]) for b in R] for a in R]
    meet = [[greatest(down[a] & down[b]) for b in R] for a in R]
    lattice = all(x is not None for row in join + meet for x in row)
    if lattice and any(
        meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]] for a in R for b in R for c in R
    ):
        out.add("lattice_distributive")
    if any(p[p[a][b]][c] != p[a][p[b][c]] for a in R for b in R for c in R):
        out.add("monoid_associative")
    # a.b <= c  iff  a <= c/b = -(b.~c)  iff  b <= a\c = ~(-c.a)
    if any(leq[p[a][b]][c] != leq[a][m[p[b][t[c]]]] for a in R for b in R for c in R):
        out.add("residuation_right")
    if any(leq[p[a][b]][c] != leq[b][t[p[m[c]][a]]] for a in R for b in R for c in R):
        out.add("residuation_left")
    return out


def reference_adjoint(alg: FinAlgebra, rres, lres_cb) -> bool:
    """The adjunction with unit and counit checked at every pair."""
    n, leq, prod = alg.size, alg.leq, alg.product
    rows = np.arange(n)
    if not (
        leq[rows[:, None], rres[prod, rows[None, :]]].all()  # a <= ab/b
        and leq[prod[rres, rows[None, :]], rows[:, None]].all()  # (c/b)b <= c
        and leq[rows[None, :], lres_cb[prod, rows[:, None]]].all()  # b <= a\ab
        and leq[prod[rows[None, :], lres_cb], rows[:, None]].all()  # a(a\c) <= c
    ):
        return False
    for a, low in enumerate(alg.order_poset.lower_covers):
        for a0 in bits(low):
            if not (
                leq[prod[a0], prod[a]].all()
                and leq[prod[:, a0], prod[:, a]].all()
                and leq[rres[a0], rres[a]].all()
                and leq[lres_cb[a0], lres_cb[a]].all()
            ):
                return False
    return True


def reference_validate_dinfl(alg: FinAlgebra) -> ValidationReport:
    """validate_dinfl with a join-prime scan per join-irreducible and an
    associativity row loop over every join-irreducible (every element
    without a lattice or residuation)."""
    rep = ValidationReport(subject=alg.name or "algebra")
    rep.notes.append("finite carrier: complete and perfect hold automatically")
    n, leq, prod = alg.size, alg.leq, alg.product
    if not leq.diagonal().all():
        for (i,) in _witnesses(~leq.diagonal()):
            rep.add("order_reflexive", (i,))
    for i, j in _witnesses(leq & leq.T & ~np.eye(n, dtype=bool)):
        rep.add("order_antisymmetric", (i, j))
    leq_f = leq.astype(np.float32)
    for i, j in _witnesses(((leq_f @ leq_f) > 0) & ~leq):
        rep.add("order_transitive", (i, j))
    if not rep.ok:
        return rep
    lat = alg.order_poset.lattice
    missing = np.triu((lat.join < 0) | (lat.meet < 0), 1)
    for i, j in np.argwhere(missing).tolist():
        for law, table in (("lattice_join_exists", lat.join), ("lattice_meet_exists", lat.meet)):
            if table[i, j] < 0:
                rep.add(law, (i, j))
    lattice_ok = not missing.any()
    # the join-irreducibles of a lattice: the elements with one lower cover
    jirr = [i for i, c in enumerate(alg.order_poset.lower_covers) if c.bit_count() == 1]
    if lattice_ok:
        for j in jirr:
            for a, b in _witnesses(_join_prime_failures(leq, alg.join_table, j)):
                rep.add("lattice_distributive", (j, a, b))
    rres, lres_cb = _residuals(alg)
    residuated = reference_adjoint(alg, rres, lres_cb)
    for a in jirr if lattice_ok and residuated else range(n):
        for b, c in _mismatches(prod[prod[a]], prod[a][prod]):
            rep.add("monoid_associative", (a, b, c))
    ident = np.arange(n)
    for (a,) in _witnesses(prod[alg.one] != ident):
        rep.add("monoid_unit_left", (a,))
    for (a,) in _witnesses(prod[:, alg.one] != ident):
        rep.add("monoid_unit_right", (a,))
    tilde, minus = alg.tilde, alg.minus
    for (a,) in _witnesses(minus[tilde] != ident):
        rep.add("linear_negation_inverse", (a,))
    for (a,) in _witnesses(tilde[minus] != ident):
        rep.add("linear_negation_inverse", (a,))
    for a, b in _witnesses(leq != leq[np.ix_(tilde, tilde)].T):
        rep.add("linear_negation_antitone", (a, b))
    for a, b in _witnesses(leq != leq[np.ix_(minus, minus)].T):
        rep.add("linear_negation_antitone", (a, b))
    if not residuated:
        _residuation_witnesses(rep, alg, rres, lres_cb)
    if lattice_ok:
        if tilde[alg.one] == minus[alg.one]:
            lz = leq[:, int(tilde[alg.one])]
            for a, b in _witnesses(leq != lz[prod[np.ix_(np.arange(n), tilde)]]):
                rep.add("semiring_reformulation", (a, b))
            for a, b in _witnesses(leq != lz[prod[minus]].T):
                rep.add("semiring_reformulation", (a, b))
            lhs = minus[alg.join_table[np.ix_(tilde, tilde)]]
            for a, b in _witnesses(alg.meet_table != lhs):
                rep.add("meet_from_join_negation", (a, b))
        else:
            rep.add("zero_agreement", (int(tilde[alg.one]), int(minus[alg.one])))
    return rep


def reference_validate(alg: FinAlgebra) -> ValidationReport:
    """``reference_validate_dinfl`` plus, for a DqRA, the De Morgan laws."""
    rep = reference_validate_dinfl(alg)
    if alg.neg is None:
        return rep
    neg, ident = alg.neg, np.arange(alg.size)
    for (a,) in _witnesses(neg[neg] != ident):
        rep.add("neg_involution", (a,))
    try:
        meet, join = alg.meet_table, alg.join_table
    except PreconditionError:
        return rep
    for a, b in _witnesses(neg[meet] != join[np.ix_(neg, neg)]):
        rep.add("de_morgan_meet", (a, b))
    for a, b in _witnesses(neg[alg.product] != plus_table(alg)[np.ix_(neg, neg)]):
        rep.add("de_morgan_product", (a, b))
    return rep


def fresh(alg: FinAlgebra) -> FinAlgebra:
    """The same tables with nothing derived from them cached yet."""
    return FinAlgebra(np.array(alg.leq), np.array(alg.product), alg.one, alg.tilde, alg.minus,
                      neg=alg.neg, name=alg.name)


def assert_report_matches_loops(alg: FinAlgebra):
    rep = validate_dqra(alg) if alg.neg is not None else validate_dinfl(alg)
    want = reference_validate(fresh(alg))
    assert (rep.ok, rep.laws_violated(), rep.failures) == (
        want.ok, want.laws_violated(), want.failures), alg.name


def assert_matches_reference(alg: FinAlgebra):
    rep = validate_dqra(alg) if alg.neg is not None else validate_dinfl(alg)
    assert set(rep.laws_violated()) & COVERED == reference_laws(alg), alg.name


def mutants(alg: FinAlgebra, rng: random.Random, kinds):
    """Seeded corruptions: product cells, a tilde swap, an order cell flip."""
    n = alg.size
    for kind in kinds:
        leq, prod, tilde = alg.leq.copy(), alg.product.copy(), alg.tilde.copy()
        if kind in ("cell", "cells"):
            for _ in range(1 if kind == "cell" else 2):
                prod[rng.randrange(n), rng.randrange(n)] = rng.randrange(n)
        elif kind == "tilde":
            i, j = rng.sample(range(n), 2)
            tilde[i], tilde[j] = tilde[j], tilde[i]
        else:
            i, j = rng.sample(range(n), 2)
            leq[i, j] = not leq[i, j]
        yield FinAlgebra(leq, prod, alg.one, tilde, alg.minus, neg=alg.neg,
                         name=f"{alg.name}~{kind}")


def test_catalog_and_mutants_match_reference():
    rng = random.Random(6)
    for entry in build_catalog():
        algebras = [entry.base] + [v.algebra for v in entry.variants]
        for alg in algebras:
            assert_matches_reference(alg)
            if alg.size > 1:
                for mutant in mutants(alg, rng, ("cell", "cells", "tilde", "order")):
                    assert_matches_reference(mutant)


def test_dq_above_64_elements_and_product_mutants_match_reference():
    k = 4
    chain = Poset.chain(k)
    base = RepBase(chain, tuple([chain.carrier] * k), tuple(range(k)), tuple(reversed(range(k))))
    alg = build_dq(base).algebra
    assert alg.size == 70
    assert_matches_reference(alg)
    for mutant in mutants(alg, random.Random(70), ("cell", "cells") * 4):
        assert_matches_reference(mutant)


def test_associativity_failing_only_off_the_join_irreducibles():
    # D3_1_2 is the chain 0 < 1 < 2; setting 0.1 = 2 breaks residuation, and
    # associativity fails only in row 0, the bottom, which is not
    # join-irreducible: without residuation every row has to be checked
    base = catalog_lookup("D3_1_2").base
    prod = base.product.copy()
    prod[0, 1] = 2
    alg = FinAlgebra(base.leq, prod, base.one, base.tilde, base.minus, name="D3_1_2~0.1=2")
    assert reference_laws(alg) >= {"monoid_associative", "residuation_right"}
    assert_matches_reference(alg)
    with pytest.raises(InternalCheckError, match="residual adjunction failed"):
        derived_ops(alg)


def test_residuated_quasigroup_on_an_antichain():
    # on a three-element antichain every row and column of a Latin square
    # is residuated, and tilde/minus give the residuals; the order is not
    # a lattice and has no join-irreducibles, so associativity is checked
    # on every row
    alg = FinAlgebra(np.eye(3, dtype=bool), [[0, 1, 2], [2, 0, 1], [1, 2, 0]], 0,
                     [0, 1, 2], [0, 2, 1], name="antichain quasigroup")
    assert reference_laws(alg) == {"monoid_associative"}
    assert_matches_reference(alg)


@pytest.mark.parametrize("product, tilde, minus", [
    # on the 3-chain, with these negations: only a <= ab/b fails,
    ([[0, 0, 0]] * 3, [2, 0, 1], [0, 1, 2]),
    # only b <= a\ab fails,
    ([[0, 0, 0]] * 3, [0, 1, 2], [2, 0, 1]),
    # only the two counits (c/b)b <= c and a(a\c) <= c fail,
    ([[0, 1, 2], [1, 1, 2], [2, 2, 2]], [0, 1, 2], [0, 1, 2]),
    # only the monotonicity of the product in each argument fails,
    ([[2, 0, 2], [0, 0, 0], [2, 0, 2]], [2, 0, 1], [2, 0, 1]),
    # only the monotonicity of both residuals fails
    ([[0, 0, 0], [0, 1, 1], [0, 1, 1]], [2, 0, 1], [2, 0, 1]),
])
def test_each_part_of_the_adjunction_is_needed(product, tilde, minus):
    leq = [[i <= j for j in range(3)] for i in range(3)]
    alg = FinAlgebra(leq, product, 0, tilde, minus, name="3-chain")
    assert reference_laws(alg) & {"residuation_right", "residuation_left"}
    assert_matches_reference(alg)


@pytest.mark.parametrize("transpose", [False, True])
def test_each_product_gather_is_needed_without_counits(transpose):
    # on the 2x2 lattice tilde = minus = (3, 1, 2, 0) are anti-isomorphisms,
    # so by lemma 5 of qra.algebra no counit is checked.  The product that
    # is 0 but for row 2 = (0, 0, 1, 1) passes both units at J and is
    # monotone in its first argument, not its second; its transpose the
    # other way round.  Neither is residuated
    product = np.zeros((4, 4), dtype=int)
    product[2] = (0, 0, 1, 1)
    square = Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    alg = FinAlgebra(square, product.T if transpose else product, 0, [3, 1, 2, 0], [3, 1, 2, 0],
                     name="2x2")
    assert reference_laws(alg) >= {"residuation_right", "residuation_left"}
    assert_matches_reference(alg)


def test_adjoint_reads_no_counit_on_every_product_of_the_three_chain():
    # lemma 5 of qra.algebra: tilde = minus = the reversal are
    # anti-isomorphisms, so the counits follow from the units
    chain = Poset.chain(3)
    residuated = 0
    for cells in itertools.product(range(3), repeat=9):
        alg = FinAlgebra(chain, np.reshape(cells, (3, 3)), 0, [2, 1, 0], [2, 1, 0])
        want = reference_adjoint(alg, *_residuals(alg))
        assert _adjoint(alg, True) == want, cells
        residuated += want
    assert residuated == 5


def test_monotonicity_failure_past_the_first_block_of_covers():
    # 2^6 x B, with 2^6 the Boolean algebra (product meet, tilde = minus =
    # complement) and B the 3-chain whose product fails monotonicity and
    # nothing else of the adjunction.  A covered law holds in a direct
    # product iff it holds in both factors, and the Boolean algebra has them
    # all.  Element (x, y) is y * 64 + x, so the 192 covers inside y = 0,
    # where every check passes, fill the first block of n = 192 cover pairs
    # and every cover where one fails comes after it.
    size = 64
    bits_ = np.arange(size)
    b_leq = np.array([[i <= j for j in range(3)] for i in range(3)])
    b_prod = np.array([[2, 0, 2], [0, 0, 0], [2, 0, 2]])
    b_neg = np.array([2, 0, 1])
    leq = np.kron(b_leq, (bits_[:, None] & ~bits_[None, :]) == 0)
    prod = (b_prod[:, None, :, None] * size + (bits_[:, None] & bits_[None, :])[None, :, None, :])
    neg = (b_neg[:, None] * size + (bits_ ^ (size - 1))[None, :]).ravel()
    alg = FinAlgebra(leq, prod.reshape(3 * size, 3 * size), 0, neg, neg, name="2^6 x B")
    b = FinAlgebra(b_leq, b_prod, 0, b_neg, b_neg)
    assert sum(int(c).bit_count() for c in alg.order_poset.lower_covers[:size]) == alg.size
    rep = validate_dinfl(alg)
    assert set(rep.laws_violated()) & COVERED == reference_laws(b)
    assert "residuation_right" in rep.laws_violated()


@pytest.mark.parametrize("middles", [8, 256])
def test_transitivity_counts_do_not_wrap(middles):
    # 0 < m < top for every middle m, but 0 <= top is missing: 0 reaches
    # top along `middles` paths, a multiple of 256 in the second case
    n = middles + 2
    leq = np.eye(n, dtype=bool)
    leq[0, 1:-1] = True
    leq[1:-1, -1] = True
    alg = FinAlgebra(leq, np.zeros((n, n), dtype=int), 0, range(n), range(n))
    rep = validate_dinfl(alg)
    assert rep.laws_violated() == ["order_transitive"]
    assert rep.failures == [("order_transitive", (0, n - 1))]
    if middles <= 8:
        assert reference_laws(alg) == {"order_transitive"}


def test_reports_match_the_loops_on_the_catalogue_and_mutants():
    rng = random.Random(15)
    for entry in build_catalog():
        for alg in [entry.base] + [v.algebra for v in entry.variants]:
            assert_report_matches_loops(alg)
            if alg.size > 1:
                for mutant in mutants(alg, rng, ("cell", "cells", "tilde", "order")):
                    assert_report_matches_loops(mutant)


def test_reports_match_the_loops_on_every_order_of_five_points():
    # lattices among them include the non-distributive M3 and N5; the
    # filler product is not residuated, so every row is checked
    for poset in all_posets(5):
        n = poset.n
        for neg in (None, list(range(n))):
            alg = FinAlgebra(np.array(poset.matrix(), dtype=bool), np.zeros((n, n), dtype=int),
                             0, list(range(n)), list(range(n)), neg=neg, name=repr(poset))
            assert_report_matches_loops(alg)


def test_reports_match_the_loops_on_dq_above_64_elements_and_its_mutants():
    k = 4
    chain = Poset.chain(k)
    base = RepBase(chain, tuple([chain.carrier] * k), tuple(range(k)), tuple(reversed(range(k))))
    alg = build_dq(base).algebra
    assert_report_matches_loops(alg)
    for mutant in mutants(alg, random.Random(71), ("cell", "cells", "tilde", "order") * 2):
        assert_report_matches_loops(mutant)


def test_associativity_failing_although_residuation_holds():
    # the complex algebra of a two-point frame whose composition is closed
    # under rotation but not associative: residuation holds, so the J x J x J
    # test decides associativity, and its failure sends the scan to the rows
    # of J for witnesses, where c ranges over every element
    frame = Frame(Poset.antichain(2), 0b01, [[0, 0b10], [0b10, 0b01]], [0, 1], [0, 1])
    alg = complex_algebra(frame)
    rep = validate_dinfl(alg)
    assert not {"residuation_right", "residuation_left"} & set(rep.laws_violated())
    assert reference_laws(alg) == {"monoid_associative"}
    assert [w for law, w in rep.failures if law == "monoid_associative"] == [
        (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3), (1, 3, 2)]
    assert_report_matches_loops(alg)


def neg_mutants(alg: FinAlgebra, rng: random.Random):
    """Seeded corruptions of a DqRA aimed at the De Morgan laws: product
    cells, a swap of two neg values, and neg replaced by order-reversing
    involutions, which keep every premise of the J x J test for (Dp)."""
    n = alg.size
    for kind in ("cell", "cells"):
        yield from mutants(alg, rng, (kind,))
    neg = alg.neg.copy()
    i, j = rng.sample(range(n), 2)
    neg[i], neg[j] = neg[j], neg[i]
    yield alg.with_neg(neg, name=f"{alg.name}~neg")
    for g in alg.order_poset.order_reversing_involutions[:12]:
        yield alg.with_neg(list(g), name=f"{alg.name}~neg={g}")


def test_de_morgan_laws_on_the_irreducibles_match_the_full_scan():
    # validate_dqra decides de_morgan_meet on the cover pairs and (Dp) on
    # J x J once the premises hold; the reference scans every pair
    rng = random.Random(16)
    chain = Poset.chain(4)
    dq = build_dq(RepBase(chain, (chain.carrier,) * 4, range(4), range(3, -1, -1))).algebra
    sources = [v.algebra for entry in build_catalog() for v in entry.variants]
    sources += [build_dq(base).algebra for base in iterate_bases(2, True, SearchOptions())] + [dq]
    decided = set()
    for alg in (a for a in sources if a.size > 1):
        for mutant in [alg, *neg_mutants(alg, rng)]:
            assert_report_matches_loops(mutant)
            if _validate_dinfl(mutant)[1]:
                laws = set(validate_dqra(mutant).laws_violated())
                decided.add(("de_morgan_meet" in laws, "de_morgan_product" in laws))
    # on a lattice with residuation and anti-isomorphic linear negations,
    # the cover test fails and passes, and after it the J x J test too
    assert decided >= {(False, False), (False, True), (True, True)}


def test_semiring_law_scanned_when_a_unit_law_fails():
    # D2_1_1, the two-element Boolean algebra, with the bottom as its unit:
    # the product is still residuated, zero agrees and the negations still
    # undo each other, so of the premises of lemma 4 only the unit laws
    # fail, and the semiring law fails with them at a = 1, b = 0
    base = catalog_lookup("D2_1_1").base
    alg = FinAlgebra(base.leq, base.product, base.bottom, base.tilde, base.minus,
                     name="D2_1_1~unit=0")
    rep = validate_dinfl(alg)
    assert rep.laws_violated() == ["monoid_unit_left", "monoid_unit_right",
                                   "semiring_reformulation"]
    assert [w for law, w in rep.failures if law == "semiring_reformulation"] == [(1, 0), (1, 0)]
    assert_report_matches_loops(alg)


def test_algebra_validates_iff_its_dual_frame_does_and_round_trips():
    # the duality as a cross-check between the two law checkers: a
    # catalogue algebra or a table mutant of one validates exactly when its
    # dual frame builds, validates as a frame and gives the algebra back.
    # On an invalid algebra the dual frame may raise one of two typed errors
    rng = random.Random(12)
    outcomes = {}
    for entry in build_catalog():
        for alg in [entry.base] + [v.algebra for v in entry.variants]:
            cases = [alg] + list(mutants(alg, rng, ("cell", "cells", "tilde", "order"))
                                 if alg.size > 1 else [])
            for case in cases:
                ok = (validate_dqra(case) if case.neg is not None else validate_dinfl(case)).ok
                try:
                    dual, error = (validate_frame(dual_frame(case)).ok
                                   and bool(roundtrip_algebra(case))), None
                except (InternalCheckError, PreconditionError) as exc:
                    dual, error = False, type(exc).__name__
                assert ok == dual, (case.name, error)
                outcomes[ok, error] = outcomes.get((ok, error), 0) + 1
    assert outcomes == {(True, None): 174, (False, None): 197,
                        (False, "InternalCheckError"): 192, (False, "PreconditionError"): 109}


def _flipped_cell(frame: Frame, rng: random.Random) -> Frame:
    """The frame with one bit of one composition cell flipped and that cell
    closed upward, so that its complex algebra is defined."""
    n = frame.size
    x, y, w = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    comp = [list(row) for row in frame.comp]
    comp[x][y] = frame.poset.upset_closure(comp[x][y] ^ (1 << w))
    return Frame(frame.poset, frame.identity, comp, frame.tilde, frame.minus, neg=frame.neg)


def test_frame_validates_iff_its_complex_algebra_does_and_it_is_the_dual():
    # the duality on the frame side: a census frame on at most 4 points, or
    # a mutant of one, is valid exactly when its complex algebra validates
    # and the dual frame of that algebra is isomorphic to it
    rng = random.Random(12)
    frames = [frame for poset in [Poset(())] + [NAMED_POSETS[name] for name in CENSUS_ORDER]
              if poset.n <= 4 for signature in ("dinfl", "dqra")
              for frame in enumerate_frames(poset, signature).frames]
    assert len(frames) == 275
    pointed = [frame for frame in frames if frame.size]
    cases = frames + [_flipped_cell(rng.choice(pointed), rng) for _ in range(3000)]
    outcomes = {}
    for frame in cases:
        cm = complex_algebra(frame)
        algebra_ok = (validate_dqra(cm) if cm.neg is not None else validate_dinfl(cm)).ok
        dual = algebra_ok and frame_iso(frame, dual_frame(cm)) is not None
        frame_ok = validate_frame(frame).ok
        assert frame_ok == dual
        outcomes[frame_ok, algebra_ok] = outcomes.get((frame_ok, algebra_ok), 0) + 1
    assert outcomes == {(True, True): 872, (False, True): 203, (False, False): 2200}


def cover_pair_adjoint(alg: FinAlgebra, anti: bool) -> bool:
    """``qra.algebra._adjoint`` before lemma 6: the units at J, the counits
    at M unless ``anti``, and monotonicity on every cover pair, of the
    product and, unless ``anti``, of both residuals."""
    n, prod, poset = alg.size, alg.product, alg.order_poset
    tilde, minus = alg.tilde, alg.minus
    below = alg.leq.ravel()

    def leq(x, y):
        return below[x.astype(np.intp) * n + y].all()

    rows = np.arange(n)
    j = np.array(poset.join_irreducibles, dtype=np.intp)
    if not (leq(j[:, None], minus[prod[rows, tilde[prod[j]]]])
            and leq(j, tilde[prod[minus[prod[:, j]], rows[:, None]]])):
        return False
    if not anti:
        m = np.array(poset.meet_irreducibles, dtype=np.intp)
        rres, lres = _residuals(alg, m)
        if not (leq(prod[rres, rows], m[:, None]) and leq(prod[rows, lres], m[:, None])):
            return False
    covers = poset.cover_pairs
    for block in row_blocks(len(covers), n):
        lo, hi = covers[block].T
        pairs = [(prod[lo], prod[hi]), (prod[:, lo], prod[:, hi])]
        if not anti:
            pairs += zip(_residuals(alg, lo), _residuals(alg, hi))
        if not all(leq(x, y) for x, y in pairs):
            return False
    return True


class _JoinExtensionCalls:
    """``algebra._joins_extend`` with a tally of its verdicts."""

    def __init__(self):
        self.verdicts = []

    def __call__(self, alg):
        self.verdicts.append(_joins_extend(alg))
        return self.verdicts[-1]


def assert_reports_match_the_cover_pair_scan(alg: FinAlgebra, monkeypatch):
    checks = [validate_dinfl] + ([validate_dqra] if alg.neg is not None else [])
    reports = []
    for adjoint in (qra.algebra._adjoint, cover_pair_adjoint):
        with monkeypatch.context() as patched:
            patched.setattr(qra.algebra, "_adjoint", adjoint)
            reports.append([(r.ok, r.laws_violated(), r.failures)
                            for r in (check(fresh(alg)) for check in checks)])
    assert reports[0] == reports[1], alg.name


def _steps_broken(alg: FinAlgebra):
    """The cells (a, b) with a.b other than a0.b join j.b, and those with
    b.a other than b.a0 join b.j, over the steps (a, a0, j)."""
    prod, join = alg.product, alg.join_table
    first, second = set(), set()
    for a, a0, j in alg.order_poset.join_steps.T.tolist():
        for b in range(alg.size):
            if prod[a, b] != join[prod[a0, b], prod[j, b]]:
                first.add((a, b))
            if prod[b, a] != join[prod[b, a0], prod[b, j]]:
                second.add((b, a))
    return first, second


def test_join_extension_matches_the_cover_pairs_on_the_catalogue_and_mutants(monkeypatch):
    # every catalogue base and variant, and four seeded mutants of each one
    # with more than one element: product cells, a tilde swap, an order flip
    calls = _JoinExtensionCalls()
    monkeypatch.setattr(qra.algebra, "_joins_extend", calls)
    rng = random.Random(30)
    algebras = [a for entry in build_catalog() for a in [entry.base]
                + [v.algebra for v in entry.variants]]
    cases = algebras + [m for a in algebras if a.size > 1
                        for m in mutants(a, rng, ("cell", "cells", "tilde", "order"))]
    assert len(cases) == 136 + 536
    for alg in cases:
        assert_reports_match_the_cover_pair_scan(alg, monkeypatch)
    # lemma 6 decides residuation both ways on many of them
    assert calls.verdicts.count(True) > 50 and calls.verdicts.count(False) > 50


@pytest.mark.parametrize("need_beta", [True, False])
def test_join_extension_matches_the_cover_pairs_on_every_small_dq(need_beta, monkeypatch):
    # the Dq(E) of every base on at most 3 points, each within the cap of
    # the search
    calls = _JoinExtensionCalls()
    monkeypatch.setattr(qra.algebra, "_joins_extend", calls)
    bases = list(iterate_bases(3, need_beta, SearchOptions()))
    assert len(bases) == {True: 39, False: 25}[need_beta]
    for base in bases:
        assert_reports_match_the_cover_pair_scan(DqAlgebra(base, SEARCH_UPSET_CAP).algebra,
                                                 monkeypatch)
    assert calls.verdicts == [True] * len(bases) * (2 if need_beta else 1)


def test_a_product_that_fails_lemma_6_only_at_the_empty_join():
    # the 3-chain with 0.1 = 0.2 = 1: every a.b is a0.b join j.b in both
    # arguments, but 0.b is not 0.  The product is monotone, so the units
    # catch it, as lemma 6 says; 0.b = 0 needs no test of its own
    leq = [[i <= j for j in range(3)] for i in range(3)]
    alg = FinAlgebra(leq, [[0, 1, 1], [0, 1, 2], [0, 2, 2]], 1, [2, 1, 0], [2, 1, 0],
                     neg=[2, 1, 0], name="S3~0.b=1")
    assert _steps_broken(alg) == (set(), set())
    assert list(alg.product[0]) != [0, 0, 0]
    assert not _adjoint(alg, True) and not cover_pair_adjoint(alg, True)
    assert reference_laws(alg) >= {"residuation_right", "residuation_left"}
    assert_report_matches_loops(alg)


def test_a_product_that_fails_lemma_6_in_one_cell():
    # D4_2_2 on the 2x2 lattice with top.top = 0: a.b = a0.b join j.b
    # fails at the one cell (3, 3), in each argument; the units at J hold,
    # so the join extension is what finds residuation broken
    base = catalog_lookup("D4_2_2").base
    prod = base.product.copy()
    prod[3, 3] = 0
    alg = FinAlgebra(base.order_poset, prod, base.one, base.tilde, base.minus,
                     name="D4_2_2~3.3=0")
    assert _steps_broken(alg) == ({(3, 3)}, {(3, 3)})
    verdicts = _JoinExtensionCalls()
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(qra.algebra, "_joins_extend", verdicts)
        assert not _adjoint(alg, True)
    assert verdicts.verdicts == [False] and not cover_pair_adjoint(alg, True)
    assert reference_laws(alg) >= {"residuation_right", "residuation_left"}
    assert_report_matches_loops(alg)


def test_the_join_extension_is_not_taken_off_a_distributive_lattice():
    # M3, with 4 = 3 join 2 its step: on a lattice that is not
    # distributive the identities of lemma 6 and the units at J can hold
    # although the product is not monotone (1.1 = 4, but 4.1 = 0)
    m3 = Poset.from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    product = np.zeros((5, 5), dtype=int)
    product[1, 1] = 4
    alg = FinAlgebra(m3, product, 0, [4, 3, 1, 2, 0], [4, 2, 3, 1, 0], name="M3")
    assert not m3.distributive and _joins_extend(alg)
    assert not _adjoint(alg, True) and not cover_pair_adjoint(alg, True)
    assert reference_laws(alg) >= {"residuation_right", "residuation_left"}
    assert_report_matches_loops(alg)


def test_the_adjunction_mutants_keep_their_reports(monkeypatch):
    # the five 3-chain structures that each break one part of the
    # adjunction, and the two 2x2 products monotone in one argument only
    chain = [[i <= j for j in range(3)] for i in range(3)]
    cases = [FinAlgebra(chain, product, 0, tilde, minus, name="3-chain")
             for product, tilde, minus in (
                 ([[0, 0, 0]] * 3, [2, 0, 1], [0, 1, 2]),
                 ([[0, 0, 0]] * 3, [0, 1, 2], [2, 0, 1]),
                 ([[0, 1, 2], [1, 1, 2], [2, 2, 2]], [0, 1, 2], [0, 1, 2]),
                 ([[2, 0, 2], [0, 0, 0], [2, 0, 2]], [2, 0, 1], [2, 0, 1]),
                 ([[0, 0, 0], [0, 1, 1], [0, 1, 1]], [2, 0, 1], [2, 0, 1]))]
    product = np.zeros((4, 4), dtype=int)
    product[2] = (0, 0, 1, 1)
    square = Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    cases += [FinAlgebra(square, p, 0, [3, 1, 2, 0], [3, 1, 2, 0], name="2x2")
              for p in (product, product.T)]
    for alg in cases:
        assert_reports_match_the_cover_pair_scan(alg, monkeypatch)
