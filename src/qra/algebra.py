"""Finite DInFL-algebras and distributive quasi relation algebras.

A ``FinAlgebra`` stores the full order matrix and operation tables of a
finite algebra ``(A, meet, join, prod, 1, tilde, minus[, neg])``.  The two
linear negations ``tilde`` and ``minus`` are mutually inverse order
reversing maps; ``neg`` (a De Morgan negation) is present exactly when the
algebra is presented as a DqRA.  Carriers are index based ``0..n-1`` and
all tables are immutable after construction.

Validation is exhaustive: every law holds for all tuples exactly when the
report has no failure for it, and each failure carries a witness tuple.
One code path serves every carrier size.  The order premises (partial
order, lattice, distributive) are decided once per order, by ``Poset``.
Most laws are decided through the irreducibles, or through the cover
pairs, by the first three lemmas below and the last; lemmas 4 and 5
make laws follow from others.

1. Let J be the elements that are not the least upper bound of the
   elements strictly below them (in a lattice, the join-irreducibles),
   and key[a] = J ∩ ↓a (``Poset.down_keys``).  By induction on height,
   every element of a finite poset is the least upper bound of J ∩ ↓a,
   the bottom of the empty set; so a <= b iff key[a] is within key[b].
   Distributivity is "every j in J is join-prime", which is one test
   over word rows (``Poset.distributive``).
2. Residuation makes x -> xy and y -> xy preserve every join, the empty
   one included, so (ab)c and a(bc) preserve joins in each argument
   separately, and by lemma 1 they agree everywhere iff they agree on
   J x J x J.  Residuation itself is a Galois connection: monotonicity
   on the cover pairs, or by lemma 6 on n rows and n columns, and then,
   by lemma 1 and its dual, the units at J and the counits at the
   meet-irreducibles, or by lemma 5 no counit.
3. A permutation f of a finite poset that reverses every cover pair
   reverses the order, and then maps the related pairs injectively,
   so onto, themselves: a <= b iff f(b) <= f(a), an anti-isomorphism,
   which turns meets into joins and joins into meets, the empty ones
   included.  So the linear negations are order-reversing
   (``linear_negation_antitone``) iff they reverse every cover pair,
   and, in a lattice, neg(a meet b) = neg a join neg b for all a and b
   (``de_morgan_meet``) iff neg does (the law with a <= b gives
   neg b <= neg a).  If ~ is an anti-isomorphism and minus undoes it,
   then a meet b = -(~a join ~b) (``meet_from_join_negation``).  Let
   the order be a lattice on which the product is residuated, and let
   ~, - and neg be anti-isomorphisms.  Then the De Morgan product law
   (Dp) neg(ab) = neg a + neg b, with x + y = -(~y . ~x), holds iff it
   holds on J x J: the product preserves joins in each argument, so
   both sides turn joins in a into meets, and likewise in b, and by
   lemma 1 each side at (a, b) is the meet of its values at the pairs
   of J ∩ ↓a and J ∩ ↓b.
4. Let 0 = ~1 = -1, let 1 be a two-sided unit, let ~ and - undo each
   other, and let the product be residuated with c/b = -(b.~c) and
   a\\c = ~(-c.a).  Then ~0 = ~-1 = 1 and -0 = -~1 = 1, so the
   idempotent-semiring reformulation (``semiring_reformulation``) holds:
   a.~b <= 0 iff a <= 0/~b = -(~b.~0) = -~b = b, and -b.a <= 0 iff
   a <= -b\\0 = ~(-0.-b) = ~-b = b.
5. Let ~ and - be order anti-isomorphisms, c/b = -(b.~c) and
   a\\c = ~(-c.a).  Then (c/b)b <= c iff ~c <= b\\(b.~c), and
   a(a\\c) <= c iff -c <= (-c.a)/a.  Proof: x = (c/b)b = -(b.~c).b has
   ~x = b\\(b.~c), and y = a(a\\c) = a.~(-c.a) has -y = (-c.a)/a; and an
   anti-isomorphism f has x <= c iff f(c) <= f(x).  As c ranges over the
   carrier so do ~c and -c, so the counits hold wherever the units
   b <= a\\ab and a <= ab/b do.
6. Let the order be a finite distributive lattice with least element 0,
   and for each a other than 0 fix a lower cover a0 of a
   (``Poset.join_steps``).  By lemma 1 key[a0] is a proper subset of
   key[a]; let j be in key[a] and not in key[a0].  Then a0 < a0 join j
   <= a, so a = a0 join j, and j is the only such element: another j'
   would give j <= a = a0 join j', and j is join-prime and not below
   a0, so j <= j', and likewise j' <= j.  Suppose a.b = (a0.b) join
   (j.b) for every a but 0 and every b.  By induction on the height of
   a, a.b is 0.b joined with j'.b over every j' in J ∩ ↓a, so the
   product is monotone in its first argument; if also 0.b = 0, it
   preserves every join, as key[a join c] = key[a] | key[c].  The second
   argument is the same.  Conversely, a residuated product preserves
   every join, so it meets both identities.  So when ~ and - are
   anti-isomorphisms, the identities on n rows and n columns, the units
   at J (lemma 2) and lemma 5 decide residuation without the cover
   pairs.  0.b = 0 is not tested: residuation implies it.

Only when one of these tests or a premise fails are the join-irreducibles
(or their rows, or the whole table) scanned, for witnesses in the order
they have always been reported.  The checks are vectorised with numpy,
and the n x n ones run a block of rows at a time (``order.row_blocks``);
the 12,870-element Dq(E) of :mod:`qra.represent` on the 8-chain validates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    InternalCheckError,
    PreconditionError,
    SignatureError,
    StructuralError,
)
from .iso import Structure, isomorphisms
from .order import Poset, bits, row_blocks

MAX_WITNESSES = 5


@dataclass
class ValidationReport:
    """Outcome of a validation pass: all violated laws with witnesses."""

    subject: str
    failures: list[tuple[str, tuple]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, law: str, witness: tuple):
        if sum(1 for name, _ in self.failures if name == law) < MAX_WITNESSES:
            self.failures.append((law, witness))

    def laws_violated(self) -> list[str]:
        seen = []
        for law, _ in self.failures:
            if law not in seen:
                seen.append(law)
        return seen

    def summary(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        laws = ", ".join(self.laws_violated())
        return f"{self.subject}: FAILED ({laws})"


def _as_perm(values, n, what) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int32)
    if arr.shape != (n,):
        raise StructuralError(f"{what} must be a length-{n} array")
    if arr.min(initial=0) < 0 or arr.max(initial=-1) >= n or len(set(arr.tolist())) != n:
        raise StructuralError(f"{what} is not a permutation of 0..{n - 1}")
    arr.setflags(write=False)
    return arr


class FinAlgebra:
    """A finite algebra in the DInFL / DqRA signature, given by tables.

    ``leq`` is the order matrix, or a :class:`Poset` whose relation and
    derived tables the algebra then shares.
    """

    def __init__(self, leq, product, one, tilde, minus, neg=None, name=None):
        if isinstance(leq, Poset):  # fills the cached order_poset
            self.__dict__["order_poset"] = leq
            leq = leq.relation
        leq = np.asarray(leq, dtype=bool)
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise StructuralError("order matrix must be square")
        n = leq.shape[0]
        if n < 1:
            raise StructuralError("carrier must be non-empty")
        product = np.asarray(product, dtype=np.int32)
        if product.shape != (n, n):
            raise StructuralError("product table must be n x n")
        if product.min() < 0 or product.max() >= n:
            raise StructuralError("product entry out of range")
        if not 0 <= int(one) < n:
            raise StructuralError("unit index out of range")
        self.size = n
        self.leq = leq
        self.product = product
        self.one = int(one)
        self.tilde = _as_perm(tilde, n, "tilde")
        self.minus = _as_perm(minus, n, "minus")
        self.neg = None if neg is None else _as_perm(neg, n, "neg")
        self.name = name
        leq.setflags(write=False)
        product.setflags(write=False)

    # -- derived structure ------------------------------------------------

    @cached_property
    def order_poset(self) -> Poset:
        """The order as a :class:`Poset`, the source of every table derived
        from it.  Not checked: ``validate_dinfl`` reports order failures."""
        return Poset.from_matrix(self.leq, check=False)

    @cached_property
    def join_table(self) -> np.ndarray:
        return self.order_poset.total("join")

    @cached_property
    def meet_table(self) -> np.ndarray:
        return self.order_poset.total("meet")

    # The two duals of the algebra, each built on first use by its public
    # function and then shared by every caller: the objects are read-only.
    # Both depend on the product and the negations, so they live here and
    # not on the order poset, which ``with_neg`` shares.

    @cached_property
    def _dual_frame(self):
        """The dual frame (``qra.frame.dual_frame``), kappa verified."""
        from .frame import _build_dual_frame

        return _build_dual_frame(self)

    @cached_property
    def _filter_frame(self):
        """The filter frame (``qra.filters.filter_frame``), validated."""
        from .filters import _build_filter_frame

        return _build_filter_frame(self)

    @cached_property
    def bottom(self) -> int:
        if self.order_poset.lattice.bottom < 0:
            raise PreconditionError("lattice has no least element")
        return self.order_poset.lattice.bottom

    @cached_property
    def top(self) -> int:
        if self.order_poset.lattice.top < 0:
            raise PreconditionError("lattice has no greatest element")
        return self.order_poset.lattice.top

    @cached_property
    def zero(self) -> int:
        """The element ``tilde(1)`` (equal to ``minus(1)`` in valid algebras)."""
        return int(self.tilde[self.one])

    def meet_mask(self, mask: int) -> int:
        acc = self.top
        for i in bits(mask):
            acc = int(self.meet_table[acc, i])
        return acc

    @cached_property
    def structure(self) -> Structure:
        """The order, unit, product and negations for :mod:`qra.iso`."""
        maps = {"tilde": self.tilde, "minus": self.minus, "neg": self.neg}
        return Structure(self.size, [
            ("the order", "rel", 2, self.order_poset.up),
            ("the unit", "op", 0, [self.one]),
            ("the product", "op", 2, self.product.ravel().tolist()),
        ] + [(name, "op", 1, m.tolist()) for name, m in maps.items() if m is not None])

    def has_neg(self) -> bool:
        return self.neg is not None

    def with_neg(self, neg, name=None) -> "FinAlgebra":
        return FinAlgebra(
            self.order_poset, self.product, self.one, self.tilde, self.minus,
            neg=neg, name=name or self.name,
        )

    def without_neg(self, name=None) -> "FinAlgebra":
        return self.with_neg(None, name)

    def relabel(self, perm, name=None) -> "FinAlgebra":
        """Transport all tables along the bijection i -> perm[i]."""
        perm = np.asarray(perm, dtype=np.intp)
        inv = np.zeros(self.size, dtype=np.intp)
        inv[perm] = np.arange(self.size)
        cells = np.ix_(inv, inv)
        neg = None if self.neg is None else perm[self.neg[inv]]
        return FinAlgebra(self.leq[cells], perm[self.product[cells]], perm[self.one],
                          perm[self.tilde[inv]], perm[self.minus[inv]], neg=neg, name=name)

    def signature(self) -> str:
        return "dqra" if self.neg is not None else "dinfl"

    def __repr__(self):
        label = self.name or "algebra"
        return f"FinAlgebra({label}, n={self.size}, {self.signature()})"


# -- validation ------------------------------------------------------------


def _witnesses(mask: np.ndarray):
    if not mask.any():
        return []
    return [tuple(row) for row in np.argwhere(mask)[:MAX_WITNESSES].tolist()]


def _mismatches(lhs: np.ndarray, rhs: np.ndarray):
    if np.array_equal(lhs, rhs):
        return []
    return _witnesses(lhs != rhs)


def _row_witnesses(n: int, broken) -> list[tuple]:
    """The witnesses (a, b), in row-major order, of the n x n mask that
    ``broken(rows)`` gives one block of rows at a time, as ``_witnesses``
    finds them on the whole mask."""
    found = []
    for rows in row_blocks(n, n):
        found += [(a + rows.start, b) for a, b in _witnesses(broken(rows))]
        if len(found) >= MAX_WITNESSES:
            break
    return found[:MAX_WITNESSES]


def _join_prime_failures(leq: np.ndarray, join: np.ndarray, j: int) -> np.ndarray:
    """[a, b] is True where j <= a join b although j is below neither a nor b;
    the witness scan behind a failed ``Poset.distributive``."""
    lj = leq[j]
    return lj[join] & ~(lj[:, None] | lj[None, :])


def _residuals(alg: FinAlgebra, c=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Rows c, every row by default, of rres[c, b] = c / b = -(b.~c) and
    lres_cb[c, a] = a \\ c = ~(-c.a)."""
    rres = alg.minus[alg.product[:, alg.tilde[c]]].T
    lres_cb = alg.tilde[alg.product[alg.minus[c]]]
    return rres, lres_cb


def _adjoint(alg: FinAlgebra, anti: bool) -> bool:
    """Whether a.b <= c iff a <= c/b iff b <= a\\c for all a, b, c, given
    ``anti``: whether the order is a partial order on which tilde and minus
    are anti-isomorphisms.

    ``x -> x.b`` and ``c -> c/b`` (and ``x -> a.x``, ``c -> a\\c``) form a
    Galois connection exactly when both maps are monotone and the unit and
    counit inequalities hold.  Monotonicity is checked on the cover pairs
    ``(a0, a)``, whose transitive closure is the order; on a distributive
    lattice with ``anti``, by the n rows and n columns of lemma 6 of the
    module docstring instead (``_joins_extend``).  Given it, the
    units need checking only at the elements J of ``Poset.join_irreducibles``
    and the counits only at M: every a is the least upper bound of J ∩ ↓a,
    and j <= g(f(j)) <= g(f(a)) for each j there, so a <= g(f(a)); dually
    f(g(c)) <= f(g(m)) <= m for every m in M ∩ ↑c gives f(g(c)) <= c.
    With ``anti`` the residuals c/b = -(b.~c) and a\\c = ~(-c.a) are
    monotone in c as soon as the product is monotone, and by lemma 5 of
    the module docstring the counits hold wherever the units do, so
    neither is checked.  Rows of the residuals are formed only where they
    are read.
    """
    n, prod, poset = alg.size, alg.product, alg.order_poset
    tilde, minus = alg.tilde, alg.minus
    below = alg.leq.ravel()

    def leq(x, y):
        return below[x.astype(np.intp) * n + y].all()

    rows = np.arange(n)
    j = np.array(poset.join_irreducibles, dtype=np.intp)
    if not (leq(j[:, None], minus[prod[rows, tilde[prod[j]]]])  # j <= jb/b
            and leq(j, tilde[prod[minus[prod[:, j]], rows[:, None]]])):  # j <= a\aj
        return False
    if not anti:
        m = np.array(poset.meet_irreducibles, dtype=np.intp)
        rres, lres = _residuals(alg, m)
        if not (leq(prod[rres, rows], m[:, None])  # (m/b)b <= m
                and leq(prod[rows, lres], m[:, None])):  # a(a\m) <= m
            return False
    if anti and poset.is_lattice and poset.distributive:
        return _joins_extend(alg)
    covers = poset.cover_pairs
    for block in row_blocks(len(covers), n):
        lo, hi = covers[block].T
        pairs = [(prod[lo], prod[hi]), (prod[:, lo], prod[:, hi])]
        if not anti:
            pairs += zip(_residuals(alg, lo), _residuals(alg, hi))
        if not all(leq(x, y) for x, y in pairs):
            return False
    return True


def _joins_extend(alg: FinAlgebra) -> bool:
    """Whether a.b = a0.b join j.b and b.a = b.a0 join b.j for every b and
    every step (a, a0, j) of ``Poset.join_steps``: on a distributive
    lattice, lemma 6 of the module docstring.  Joins are read off the flat
    join table a block of rows at a time; the second half reads each row
    b at a, a0 and j, so no column of the product is gathered."""
    n, prod, join = alg.size, alg.product, alg.join_table.ravel()
    steps = alg.order_poset.join_steps

    def extends(x, x0, xj):
        return np.array_equal(x, join[x0.astype(np.intp) * n + xj])

    for rows in row_blocks(steps.shape[1], n):
        if not extends(*prod[steps[:, rows]]):
            return False
    for rows in row_blocks(n, n):
        at = prod[rows][:, steps]
        if not extends(at[:, 0], at[:, 1], at[:, 2]):
            return False
    return True


def validate_dinfl(alg: FinAlgebra) -> ValidationReport:
    """Check every DInFL-algebra law; collect all violations with witnesses."""
    return _validate_dinfl(alg)[0]


def _validate_dinfl(alg: FinAlgebra) -> tuple[ValidationReport, bool]:
    """The report of ``validate_dinfl``, and whether the order is a lattice
    on which the product is residuated and tilde and minus are order
    anti-isomorphisms: the premises of lemma 3 of the module docstring."""
    rep = ValidationReport(subject=alg.name or "algebra")
    rep.notes.append("finite carrier: complete and perfect hold automatically")
    n, leq, prod, poset = alg.size, alg.leq, alg.product, alg.order_poset

    if not poset.is_partial_order:
        for (i,) in _witnesses(~leq.diagonal()):
            rep.add("order_reflexive", (i,))

        def antisymmetric(rows):
            out = leq[rows] & leq[:, rows].T
            out[np.arange(out.shape[0]), np.arange(rows.start, rows.start + out.shape[0])] = False
            return out

        for i, j in _row_witnesses(n, antisymmetric):
            rep.add("order_antisymmetric", (i, j))
        for i, j in poset.intransitive_pairs[:MAX_WITNESSES].tolist():
            rep.add("order_transitive", (i, j))
        return rep, False

    lattice_ok = poset.is_lattice
    if not lattice_ok:
        lat = poset.lattice
        for i, j in np.argwhere(np.triu((lat.join < 0) | (lat.meet < 0), 1)).tolist():
            for law, table in (("lattice_join_exists", lat.join),
                               ("lattice_meet_exists", lat.meet)):
                if table[i, j] < 0:
                    rep.add(law, (i, j))
    jirr = poset.join_irreducibles
    if lattice_ok and not poset.distributive:
        # a finite lattice is distributive iff every join-irreducible is
        # join-prime; a failing (j, a, b) is a counterexample, since then
        # j meet (a join b) = j properly exceeds (j meet a) join (j meet b)
        for j in jirr:
            for a, b in _witnesses(_join_prime_failures(leq, alg.join_table, j)):
                rep.add("lattice_distributive", (j, a, b))

    tilde, minus = alg.tilde, alg.minus
    # lemma 3: tilde and minus are anti-isomorphisms iff they reverse the
    # cover pairs; the n x n scan runs only for one that does not
    not_anti = [f for f in (tilde, minus) if not _reverses_covers(alg, f)]
    residuated = _adjoint(alg, not not_anti)
    # lemma 2 of the module docstring: with residuation, associativity on
    # J x J x J; the rows of J are scanned only for witnesses
    rows = range(n)
    if lattice_ok and residuated:
        j = np.array(jirr, dtype=np.intp)
        pj = prod[np.ix_(j, j)]
        rows = [] if np.array_equal(prod[pj[:, :, None], j], prod[j[:, None, None], pj]) else jirr
    for a in rows:
        for b, c in _mismatches(prod[prod[a]], prod[a][prod]):
            rep.add("monoid_associative", (a, b, c))
    ident = np.arange(n)
    not_left_unit = _witnesses(prod[alg.one] != ident)
    for (a,) in not_left_unit:
        rep.add("monoid_unit_left", (a,))
    not_right_unit = _witnesses(prod[:, alg.one] != ident)
    for (a,) in not_right_unit:
        rep.add("monoid_unit_right", (a,))

    not_undone = _witnesses(minus[tilde] != ident)
    for (a,) in not_undone:
        rep.add("linear_negation_inverse", (a,))
    not_redone = _witnesses(tilde[minus] != ident)
    for (a,) in not_redone:
        rep.add("linear_negation_inverse", (a,))
    for f in not_anti:
        for a, b in _row_witnesses(n, lambda rows: leq[rows] != leq[np.ix_(f, f[rows])].T):
            rep.add("linear_negation_antitone", (a, b))

    if not residuated:
        _residuation_witnesses(rep, alg, *_residuals(alg))

    if lattice_ok:
        # Idempotent-semiring cross-check: a <= b iff a.~b <= 0 iff -b.a <= 0;
        # by lemma 4 the scans run only when a premise fails
        if tilde[alg.one] == minus[alg.one]:
            if not residuated or not_left_unit or not_right_unit or not_undone or not_redone:
                lz = leq[:, int(tilde[alg.one])]
                for a, b in _row_witnesses(n, lambda rows: leq[rows] != lz[prod[rows][:, tilde]]):
                    rep.add("semiring_reformulation", (a, b))
                for a, b in _row_witnesses(
                        n, lambda rows: leq[rows] != lz[prod[:, rows][minus]].T):
                    rep.add("semiring_reformulation", (a, b))
            # De Morgan link between the lattice and the linear negations,
            # a meet b = -(~a join ~b); by lemma 3 the scan runs only when
            # tilde or minus is not an anti-isomorphism or minus does not
            # undo tilde
            if not_anti or not_undone:
                mt, jt = alg.meet_table, alg.join_table
                for a, b in _row_witnesses(
                        n, lambda rows: mt[rows] != minus[jt[np.ix_(tilde[rows], tilde)]]):
                    rep.add("meet_from_join_negation", (a, b))
        else:
            rep.add("zero_agreement", (int(tilde[alg.one]), int(minus[alg.one])))
    return rep, lattice_ok and residuated and not not_anti


def _residuation_witnesses(rep, alg, rres, lres_cb):
    """Literal witnesses of the biconditional a.b <= c iff a <= c/b iff
    b <= a\\c, by a direct scan that stops at MAX_WITNESSES per side."""
    n = alg.size
    leq, prod = alg.leq, alg.product
    found_r = found_l = 0
    for a in range(n):
        base = leq[prod[a]]  # [b,c]: a.b <= c
        if found_r < MAX_WITNESSES:
            right = leq[a][rres].T  # [b,c]: a <= rres[c,b]
            for b, c in _mismatches(base, right):
                rep.add("residuation_right", (a, b, c))
                found_r += 1
        if found_l < MAX_WITNESSES:
            left = leq[:, lres_cb[:, a]]  # [b,c]: b <= lres[c,a]
            for b, c in _mismatches(base, left):
                rep.add("residuation_left", (a, b, c))
                found_l += 1
        if found_r >= MAX_WITNESSES and found_l >= MAX_WITNESSES:
            break
    if not (found_r or found_l):
        raise InternalCheckError("adjunction check failed but no witness found")


def validate_dqra(alg: FinAlgebra) -> ValidationReport:
    """DInFL validation plus the De Morgan negation laws.

    By lemma 3 of the module docstring, de_morgan_meet is decided on the
    cover pairs and, once its premises hold, de_morgan_product on J x J;
    only a failure there, or of a premise, runs the n x n scan, for the
    witnesses.
    """
    if alg.neg is None:
        raise SignatureError("algebra carries no De Morgan negation")
    rep, premises = _validate_dinfl(alg)
    n = alg.size
    neg = alg.neg
    ident = np.arange(n)
    for (a,) in _witnesses(neg[neg] != ident):
        rep.add("neg_involution", (a,))
    if not alg.order_poset.is_lattice:
        return rep
    meet, join = alg.meet_table, alg.join_table
    # the tables exist, so on a partial order lemma 3 applies
    anti = alg.order_poset.is_partial_order and _reverses_covers(alg, neg)
    if not anti:
        for a, b in _row_witnesses(n, lambda rows: neg[meet[rows]] != join[np.ix_(neg[rows], neg)]):
            rep.add("de_morgan_meet", (a, b))
    # (Dp): neg(a.b) = neg a + neg b with x + y = -(~y . ~x)
    prod, tilde, minus = alg.product, alg.tilde, alg.minus
    if premises and anti:
        j = np.array(alg.order_poset.join_irreducibles, dtype=np.intp)
        nt = tilde[neg[j]]
        if np.array_equal(neg[prod[np.ix_(j, j)]], minus[prod[np.ix_(nt, nt)].T]):
            return rep
    for a, b in _row_witnesses(
            n, lambda rows: neg[prod[rows]] != minus[prod[np.ix_(tilde[neg], tilde[neg[rows]])].T]):
        rep.add("de_morgan_product", (a, b))
    return rep


def _reverses_covers(alg: FinAlgebra, f: np.ndarray) -> bool:
    """Whether f(a) <= f(a0) for every cover pair a0 < a."""
    lo, hi = alg.order_poset.cover_pairs.T
    return bool(alg.leq[f[hi], f[lo]].all())


def plus_table(alg: FinAlgebra) -> np.ndarray:
    """The dual monoid operation x + y = -(~y . ~x)."""
    q = alg.product[np.ix_(alg.tilde, alg.tilde)]
    return alg.minus[q.T]


@dataclass
class DerivedOps:
    zero: int
    plus: np.ndarray
    lres: np.ndarray  # lres[a, c] = a \ c
    rres: np.ndarray  # rres[c, b] = c / b


def derived_ops(alg: FinAlgebra) -> DerivedOps:
    """Zero, dual product and both residuals, cross-checked on the fly."""
    tilde, minus, prod = alg.tilde, alg.minus, alg.product
    zero = int(tilde[alg.one])
    if zero != int(minus[alg.one]):
        raise PreconditionError("tilde(1) and minus(1) disagree; validate first")
    plus = plus_table(alg)
    plus_alt = tilde[prod[np.ix_(minus, minus)].T]
    if not np.array_equal(plus, plus_alt):
        raise InternalCheckError("the two dual-product expressions disagree")
    rres, lres_cb = _residuals(alg)
    anti = alg.order_poset.is_partial_order and all(
        _reverses_covers(alg, f) for f in (tilde, minus))
    if not _adjoint(alg, anti):
        raise InternalCheckError("residual adjunction failed; validate first")
    return DerivedOps(zero=zero, plus=plus, lres=lres_cb.T, rres=rres)


def check_di(alg: FinAlgebra) -> ValidationReport:
    """The derived identities tilde(1)=neg(1)=minus(1) and neg~a = -neg a.

    These hold in every valid DqRA, so a failure here flags an internal
    inconsistency rather than a mere law violation of the input.
    """
    if alg.neg is None:
        raise SignatureError("algebra carries no De Morgan negation")
    rep = ValidationReport(subject=alg.name or "algebra")
    rep.notes.append("failures indicate an internally inconsistent algebra")
    one, tilde, minus, neg = alg.one, alg.tilde, alg.minus, alg.neg
    if not (tilde[one] == neg[one] == minus[one]):
        rep.add("derived_zero_agreement", (int(tilde[one]), int(neg[one]), int(minus[one])))
    for (a,) in _witnesses(neg[tilde] != minus[neg]):
        rep.add("derived_neg_linear_commute", (a,))
    return rep


@dataclass(frozen=True)
class AlgebraFlags:
    cyclic: bool
    commutative: bool
    symmetric: bool | None  # None when the algebra carries no neg
    odd: bool


def classify(alg: FinAlgebra) -> AlgebraFlags:
    cyclic = bool(np.array_equal(alg.tilde, alg.minus))
    commutative = bool(np.array_equal(alg.product, alg.product.T))
    if alg.neg is None:
        symmetric = None
    else:
        symmetric = cyclic and bool(np.array_equal(alg.neg, alg.tilde))
    odd = alg.one == int(alg.tilde[alg.one])
    return AlgebraFlags(cyclic, commutative, symmetric, odd)


def join_irreducibles(alg: FinAlgebra) -> list[int]:
    """The join-irreducibles of the lattice, verified join-prime."""
    out = list(alg.order_poset.join_irreducibles)
    if out and not alg.order_poset.distributive:
        for j in out:
            if _join_prime_failures(alg.leq, alg.join_table, j).any():
                raise PreconditionError(
                    f"element {j} is join-irreducible but not join-prime; "
                    "the lattice is not distributive"
                )
    return out


def meet_irreducibles(alg: FinAlgebra) -> list[int]:
    """The meet-irreducibles of the lattice."""
    return list(alg.order_poset.meet_irreducibles)


def kappa(alg: FinAlgebra, j: int) -> int:
    """kappa(j) = join of every element not above j; defined for j join-irreducible."""
    kmap = kappa_map(alg)
    if j not in kmap:
        raise DomainError(f"element {j} is not join-irreducible")
    return kmap[j]


def kappa_map(alg: FinAlgebra) -> dict[int, int]:
    """The order isomorphism J -> M of the irreducibles, verified as such;
    its keys list J in order."""
    jirr = join_irreducibles(alg)
    mirr = set(alg.order_poset.meet_irreducibles)
    leq = alg.leq.tolist()
    join = alg.join_table.tolist() if jirr else []
    out = {}
    for j in jirr:
        k = alg.bottom
        for a, above in enumerate(leq[j]):
            if not above:
                k = join[k][a]
        if k not in mirr:
            raise InternalCheckError(f"kappa({j}) = {k} is not meet-irreducible")
        out[j] = k
    if len(set(out.values())) != len(mirr):
        raise InternalCheckError("kappa is not a bijection onto the meet-irreducibles")
    for a in jirr:
        for b in jirr:
            if leq[a][b] != leq[out[a]][out[b]]:
                raise InternalCheckError("kappa is not an order isomorphism")
    return out


def commutative_to_qra(alg: FinAlgebra) -> FinAlgebra:
    """Extend a commutative DInFL-algebra with neg := tilde."""
    if alg.neg is not None:
        raise SignatureError("algebra already carries a De Morgan negation")
    if not np.array_equal(alg.product, alg.product.T):
        raise PreconditionError("algebra is not commutative")
    return alg.with_neg(alg.tilde)


def algebra_iso(a: FinAlgebra, b: FinAlgebra):
    """A signature-preserving bijection a -> b, or None.

    Deterministic: the witness has the lexicographically least image
    sequence (see :mod:`qra.iso`).
    """
    if (a.neg is None) != (b.neg is None):
        raise SignatureError("cannot compare algebras with different signatures")
    found = isomorphisms(a.structure, b.structure, first=True)
    return list(found[0]) if found else None
